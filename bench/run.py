#!/usr/bin/env python3
"""Benchmark of ``selfred.cli.run()`` on seeded workloads.

    python3 bench/run.py --workload corpus|wide|count --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every pass is one ``cli.run()`` with ``verify=True`` and trace and summary
paths set.  Each answer is checked against ``reference.model_count`` (code
the program does not share) and against the program's own brute-force
``agree`` flag; repeated passes over the same inputs must write identical
trace and summary bytes; with the default seed, the round-0 oracle call
totals and file digests must match ``golden.json``.

``--trace 0`` reports the end-to-end metrics from untraced passes over a
fixed number of rounds, sized so that they take about ``--seconds``; their
times are in reference seconds, with the host's slowdown taken out by the
probe of ``hostclock.py``.
``--trace 1`` runs the workload's fixed traced rounds once untraced and once
with the layer wrappers of ``tracing.py`` installed, and reports the
per-layer metrics.
The last line of standard output is one JSON object holding the metrics
named in ``BENCHMARK.json``; the lines before it list every metric with its
unit.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from hostclock import HostClock, Window  # noqa: E402
from reference import model_count  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Pass, Workload  # noqa: E402

DEFAULT_SEED = 0
# Set-up is repeated and its median reported: single repeats are short and
# swing with the host even in reference seconds.
SETUP_REPEATS = 7
# Bounds on the corrected layer self times over the untraced time of the same
# passes.  The two are separate runs on a shared machine, so the bounds leave
# room for host noise.
ACCOUNTED_LOW, ACCOUNTED_HIGH = 0.75, 1.25
PACKAGE_MODULES = ("formula", "generate", "oracles", "selector", "pruning", "counting", "cli")
GOLDEN_PATH = BENCH_DIR / "golden.json"
SPEC_PATH = ROOT / "BENCHMARK.json"


class MissingProgram(Exception):
    pass


def load_modules() -> SimpleNamespace:
    """Import a fresh copy of the package from ``src/``."""
    package_dir = SRC / "selfred"
    if not (package_dir / "__init__.py").is_file():
        raise MissingProgram(f"no selfred package at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "selfred" or n.startswith("selfred.")]:
        del sys.modules[name]
    modules = SimpleNamespace(
        **{name: importlib.import_module(f"selfred.{name}") for name in PACKAGE_MODULES}
    )
    if Path(modules.cli.__file__).resolve().parent != package_dir.resolve():
        raise MissingProgram(f"selfred was imported from {modules.cli.__file__}, not {package_dir}")
    return modules


@contextmanager
def scratch_dir():
    """A directory inside the checkout for trace and summary files."""
    path = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def sha256_file(path: Path) -> str:
    with path.open("rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


@dataclass(frozen=True)
class Digest:
    oracle_calls: int
    trace_sha256: str
    summary_sha256: str


class Bench:
    """One workload at one seed, in this process."""

    def __init__(self, workload: Workload, seed: int, outdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.trace_path = outdir / "trace.jsonl"
        self.summary_path = outdir / "summary.csv"
        self.m: SimpleNamespace | None = None
        self.clock = HostClock()
        self.rounds: dict[int, tuple[list, list[int]]] = {}
        self.digests: dict[tuple[int, str], Digest] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # -- set-up ---------------------------------------------------------

    def setup(self) -> tuple[float, float]:
        """Import, generate round 0 and warm up, SETUP_REPEATS times.

        Returns the medians, in reference seconds, of the whole set-up and of
        input generation."""
        totals, generation = [], []
        for _ in range(SETUP_REPEATS):
            with self.clock.window() as load:
                m = load_modules()
            with self.clock.window() as generate:
                formulas = self.workload.make_round(m, self.seed, 0)
            with self.clock.window() as warm:
                warmup = self.workload.make_warmup(m)
                for p in self.workload.passes:
                    m.cli.run(self._config(m, p, warmup))
            times = self.clock.reference_s([load, generate, warm])
            totals.append(sum(times))
            generation.append(times[1])
        self.m = m
        self.rounds = {0: (formulas, self._references(formulas))}
        return statistics.median(totals), statistics.median(generation)

    def _references(self, formulas: list) -> list[int]:
        return [model_count(self.m.formula.serialize(f)) for f in formulas]

    def _config(self, m, p: Pass, formulas: list):
        return m.cli.ExperimentConfig(
            algorithm=p.algorithm,
            formulas=formulas,
            oracle_style=p.style,
            seed=0,
            mode=p.mode,
            verify=True,
            trace_path=str(self.trace_path),
            summary_path=str(self.summary_path),
        )

    def inputs(self, round_index: int) -> tuple[list, list[int]]:
        if self.workload.repeats_inputs:
            round_index = 0
        if round_index not in self.rounds:
            formulas = self.workload.make_round(self.m, self.seed, round_index)
            self.rounds[round_index] = (formulas, self._references(formulas))
        return self.rounds[round_index]

    # -- one pass -------------------------------------------------------

    @contextmanager
    def _timed(self, probed: bool):
        if probed:
            with self.clock.window() as window:
                yield window
            return
        window = Window()
        start = time.perf_counter()
        try:
            yield window
        finally:
            window.wall_s = time.perf_counter() - start

    def run_pass(self, p: Pass, round_index: int, probed: bool = False) -> tuple[Window, int]:
        """Time one cli.run(), probing the host if ``probed``, and check it;
        returns (its window, oracle calls)."""
        formulas, references = (p.take(items) for items in self.inputs(round_index))
        config = self._config(self.m, p, formulas)
        self.attempted += len(formulas)
        try:
            with self._timed(probed) as window:
                records = self.m.cli.run(config)
        except Exception:
            if not self.problems:  # the first traceback is enough to diagnose
                traceback.print_exc(file=sys.stderr)
            self.failed += len(formulas)
            self.problems.append(f"{p.label} round {round_index} raised")
            return window, 0

        bad = self._check_records(p, records, formulas, references)
        calls = sum(r.oracle_calls for r in records)
        del records  # so that peak_rss_mb is the program's peak, not the checker's
        digest = Digest(calls, sha256_file(self.trace_path), sha256_file(self.summary_path))
        key = (0 if self.workload.repeats_inputs else round_index, p.label)
        if self.digests.setdefault(key, digest) != digest:
            self.problems.append(f"{p.label} round {round_index}: outputs differ from an earlier pass")
            bad = len(formulas)
        self.failed += bad
        return window, calls

    def _check_records(self, p: Pass, records, formulas, references) -> int:
        if len(records) != len(formulas):
            self.problems.append(f"{p.label}: {len(records)} records for {len(formulas)} formulas")
            return len(formulas)
        bad = 0
        for record, count in zip(records, references):
            expected = count if p.algorithm == "enum_count" else count > 0
            if record.agree is not True or record.reference != expected or record.result != expected:
                bad += 1
        if bad:
            self.problems.append(f"{p.label}: {bad} records disagree with the reference count")
        return bad

    # -- measurement ----------------------------------------------------

    def measure(self, seconds: float) -> list[dict[str, Window]]:
        """Untraced, probed passes over the workload's timed rounds; one
        {label: window} per round."""
        return [
            {p.label: self.run_pass(p, round_index, probed=True)[0] for p in self.workload.passes}
            for round_index in range(self.workload.timed_rounds(seconds))
        ]

    def traced(self) -> dict[str, tuple[float, str]]:
        """The fixed traced rounds, each pass once untraced and once traced.

        The two runs of a pass alternate in order, so that neither side
        always meets the round's formulas first."""
        tracer = Tracer()
        plain = wall = 0.0
        calls = 0
        units = [(r, p) for r in range(self.workload.traced_rounds) for p in self.workload.passes]
        for i, (r, p) in enumerate(units):
            for traced_run in (i % 2 == 1, i % 2 == 0):
                if not traced_run:
                    plain += self.run_pass(p, r)[0].wall_s
                    continue
                tracer.install(self.m)
                try:
                    window, n = self.run_pass(p, r)
                finally:
                    tracer.uninstall()
                wall += window.wall_s
                calls += n
        metrics = tracer.metrics(wall, plain)

        if tracer.oracle_queries() != calls:
            self.problems.append(
                f"traced {tracer.oracle_queries()} oracle queries, records report {calls}"
            )
        accounted = metrics["trace.accounted_frac"][0]
        if not ACCOUNTED_LOW <= accounted <= ACCOUNTED_HIGH:
            self.problems.append(f"layer self times account for {accounted:.4f} of the untraced time")
        return metrics

    def check_golden(self) -> None:
        if self.seed != DEFAULT_SEED:
            return
        if not GOLDEN_PATH.is_file():
            self.problems.append(f"{GOLDEN_PATH.name} is missing")
            return
        golden = json.loads(GOLDEN_PATH.read_text()).get(self.workload.name, {}).get("round0", {})
        round0 = self.round0()
        for p in self.workload.passes:
            if golden.get(p.label) != round0[p.label]:
                self.problems.append(f"{p.label} round 0 differs from golden.json: {round0[p.label]}")
                self.failed += len(p.take(self.rounds[0][0]))

    def round0(self) -> dict[str, dict | None]:
        """Oracle call total and file digests of each pass over round 0."""
        found = {p.label: self.digests.get((0, p.label)) for p in self.workload.passes}
        return {label: digest and asdict(digest) for label, digest in found.items()}


def end_to_end(bench: Bench, rounds: list[dict[str, Window]], setup_s: float) -> dict[str, tuple[float, str]]:
    """Rates are formulas per pass over the median pass time in reference
    seconds, summed per family; the passes of a round share one slowdown.
    ``wall.formulas_per_s`` is the same rate from the median wall times, with
    nothing taken out."""
    reference: dict[str, list[float]] = defaultdict(list)
    for windows in rounds:
        for label, seconds in zip(windows, bench.clock.reference_s(list(windows.values()))):
            reference[label].append(seconds)
    family_formulas: dict[str, int] = defaultdict(int)
    family_seconds: dict[str, float] = defaultdict(float)
    wall_seconds = 0.0
    for p in bench.workload.passes:
        family_formulas[p.family] += len(p.take(bench.rounds[0][0]))
        family_seconds[p.family] += statistics.median(reference[p.label])
        wall_seconds += statistics.median(windows[p.label].wall_s for windows in rounds)
    formulas = sum(family_formulas.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "formulas_per_s": (formulas / sum(family_seconds.values()), "1/s"),
    }
    for family in family_formulas:
        metrics[f"{family}.formulas_per_s"] = (family_formulas[family] / family_seconds[family], "1/s")
    metrics["wall.formulas_per_s"] = (formulas / wall_seconds, "1/s")
    metrics["host.slowdown"] = (statistics.median(bench.clock.slowdown(list(w.values())) for w in rounds), "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["failed_frac"] = (bench.failed / max(bench.attempted, 1), "frac")
    metrics["passes"] = (sum(len(windows) for windows in rounds), "count")
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="selfred end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    wanted = [entry["name"] for entry in spec["per_layer" if args.trace else "end_to_end"]]
    with scratch_dir() as outdir:
        bench = Bench(WORKLOADS[args.workload](), args.seed, outdir)
        try:
            setup_s, generate_s = bench.setup()
        except MissingProgram as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            metrics = bench.traced()
            metrics["generate.setup_s"] = (generate_s, "s")
        else:
            metrics = end_to_end(bench, bench.measure(args.seconds), setup_s)
        bench.check_golden()

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}")
    for label, digest in bench.round0().items():
        print(f"# round0 {label} " + " ".join(f"{k}={v}" for k, v in (digest or {}).items()))
    for problem in bench.problems:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    correct = bench.failed == 0 and not bench.problems
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
