"""Smoke test of the benchmark at a tiny size:  python -m pytest bench

Two fresh runs of each workload shape must pass every check and give the
same deterministic counts and round-0 digests.  Run it on its own, not in
one pytest session with ``tests/``: the benchmark re-imports ``selfred``.
"""

import json
import shutil
import subprocess
import sys

import pytest

from run import BENCH_DIR, ROOT, Bench, end_to_end, scratch_dir
from workloads import corpus_workload, count_workload, wide_workload

TINY = {
    "corpus": lambda: corpus_workload(max_nodes=4, random_count=20, random_vars=4),
    "wide": lambda: wide_workload(var_counts=range(12, 14), traced_rounds=4),
    "count": lambda: count_workload(var_counts=range(6, 8), per_count=1, traced_rounds=2),
}


def tiny_run(make):
    with scratch_dir() as outdir:
        bench = Bench(make(), seed=3, outdir=outdir)
        setup_s, _ = bench.setup()
        e2e = end_to_end(bench, bench.measure(0.0), setup_s)
        layers = bench.traced()
    assert bench.problems == [] and bench.failed == 0
    assert bench.attempted > 0 and e2e["formulas_per_s"][0] > 0
    counts = {name: value for name, (value, unit) in layers.items() if unit in ("count", "bytes", "ratio")}
    return bench.round0(), counts


@pytest.mark.parametrize("name", sorted(TINY))
def test_two_runs_agree(name):
    first, second = tiny_run(TINY[name]), tiny_run(TINY[name])
    assert first == second
    digests, counts = first
    assert all(digests.values())
    assert counts["trace.requests"] > 0 and counts["oracles.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", "corpus", "--seed", "0", "--seconds", "1", "--trace", "0"]
    argv[0] = sys.executable
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
