#!/usr/bin/env python3
"""Regenerate golden.json: the default-seed round-0 oracle call totals and
trace/summary digests that run.py checks, plus the deterministic counts of
each workload's traced rounds at that seed (recorded, not checked).

    python3 bench/make_golden.py

Only rerun this for a change that is meant to alter answers, oracle call
counts or output bytes, and say so in that change.
"""

from __future__ import annotations

import json

from run import DEFAULT_SEED, GOLDEN_PATH, WORKLOADS, Bench, scratch_dir

DETERMINISTIC_UNITS = ("count", "bytes", "ratio")


def golden_entry(bench: Bench) -> dict:
    bench.setup()
    metrics = bench.traced()
    if bench.failed or bench.problems:
        raise SystemExit(f"{bench.workload.name}: checks failed: {bench.problems}")
    return {
        "round0": bench.round0(),
        "traced_rounds": bench.workload.traced_rounds,
        "counts": {
            name: value for name, (value, unit) in metrics.items() if unit in DETERMINISTIC_UNITS
        },
    }


def main() -> None:
    golden = {}
    for name, make in WORKLOADS.items():
        with scratch_dir() as outdir:
            golden[name] = golden_entry(Bench(make(), DEFAULT_SEED, outdir))
        print(f"{name}: {golden[name]['round0']}")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
