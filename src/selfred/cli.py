"""Command-line front end: run deciders and the counter on batches of
formulas, verify against brute force, and emit JSONL traces plus CSV
summaries.

Each algorithm is one entry of ``ALGORITHMS``.  ``run`` hands a generator of
(record, trace rows) pairs to ``write_outputs``, which writes each formula's
trace rows and summary line as the formula finishes, so a run holds one
formula's rows at a time.  Both files are written beside their paths and
replace them only when every formula has finished; a run that fails leaves
the files it would have replaced as they were.  Identical configurations
(flags and seeds) produce byte-identical trace and summary files; wall time
is reported on the console only.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import stat
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, TextIO

from .counting import count_via_enumerator, demonstrate_naive_failure
from .errors import FormulaSyntaxError, InvalidParams, SelfReducibilityError
from .formula import (
    Formula,
    brute_force_count,
    brute_force_limit,
    brute_force_sat,
    parse,
    parse_dimacs,
    serialize,
    variable_mask,
)
from .generate import generate_random
from .oracles import (
    ENUMERATOR_STYLES,
    SELECTOR_STYLES,
    SPARSE_STYLES,
    TALLY_STYLES,
    adversarial_selector,
    honest_selector,
    honest_two_enumerator,
    simulated_sparse_coreduction,
    simulated_tally_reduction,
)
from .pruning import SPARSE_MODES, decide_via_sparse, decide_via_tally
from .selector import decide_via_selector

SUMMARY_COLUMNS = [
    "formula_id",
    "vars",
    "algorithm",
    "oracle_style",
    "seed",
    "result",
    "reference",
    "agree",
    "oracle_calls",
    "max_width",
]


@dataclass
class ExperimentConfig:
    algorithm: str  # selector | tally | sparse | enum_count
    formulas: list[Formula]
    oracle_style: str
    seed: int = 0
    mode: str = "early_accept"
    verify: bool = True
    trace_path: str | None = None
    summary_path: str | None = None


@dataclass
class RunRecord:
    formula_id: int
    formula: str
    vars: int
    algorithm: str
    oracle_style: str
    seed: int
    result: bool | int
    reference: bool | int | None
    agree: bool | None
    oracle_calls: int
    max_width: int | None
    wall_time: float


def _path_result(verdict: bool, trace) -> tuple:
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


def _level_result(verdict: bool, stats) -> tuple:
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


def _solve_count(formula: Formula, oracle) -> tuple:
    before = oracle.call_counter
    count, chain = count_via_enumerator(formula, oracle)
    rows = [
        {
            "depth": linkage.depth,
            "child": serialize(linkage.child),
            "triples": [[t.a, t.b, t.c] for t in linkage.triples],
            "linkage": sorted(linkage.mapping.items()),
        }
        for linkage in chain
    ]
    return count, oracle.call_counter - before, None, rows


@dataclass(frozen=True)
class Algorithm:
    styles: tuple[str, ...]  # the default style first
    make_oracle: Callable[[ExperimentConfig], object]
    # (config, oracle, formula) -> (result, oracle calls, max width, trace rows)
    solve: Callable[[ExperimentConfig, object, Formula], tuple]
    # (formula, exhaustive-enumeration limit) -> brute-force answer
    reference: Callable[[Formula, int], bool | int]


# Entries call the deciders, the counter and the brute-force references through
# this module's globals at call time, so rebinding those names reaches them.
ALGORITHMS = {
    "selector": Algorithm(
        SELECTOR_STYLES,
        lambda c: honest_selector() if c.oracle_style == "honest" else adversarial_selector(c.seed),
        lambda c, oracle, formula: _path_result(*decide_via_selector(formula, oracle)),
        lambda formula, limit: brute_force_sat(formula, limit=limit),
    ),
    "tally": Algorithm(
        TALLY_STYLES,
        lambda c: simulated_tally_reduction(c.oracle_style),
        lambda c, oracle, formula: _level_result(*decide_via_tally(formula, oracle)),
        lambda formula, limit: brute_force_sat(formula, limit=limit),
    ),
    "sparse": Algorithm(
        SPARSE_STYLES,
        lambda c: simulated_sparse_coreduction(c.oracle_style, seed=c.seed),
        lambda c, oracle, formula: _level_result(*decide_via_sparse(formula, oracle, c.mode)),
        lambda formula, limit: brute_force_sat(formula, limit=limit),
    ),
    "enum_count": Algorithm(
        ENUMERATOR_STYLES,
        lambda c: honest_two_enumerator(c.oracle_style, seed=c.seed),
        lambda c, oracle, formula: _solve_count(formula, oracle),
        lambda formula, limit: brute_force_count(formula, limit=limit),
    ),
}


def _run_one(
    config: ExperimentConfig, oracle, formula_id: int, formula: Formula, limit: int | None
) -> tuple[RunRecord, list[dict]]:
    algorithm = ALGORITHMS[config.algorithm]
    start = time.perf_counter()
    result, oracle_calls, max_width, trace_rows = algorithm.solve(config, oracle, formula)
    for row in trace_rows:
        row.update(formula_id=formula_id, algorithm=config.algorithm)
    reference = algorithm.reference(formula, limit) if config.verify else None
    elapsed = time.perf_counter() - start
    agree = None if reference is None else result == reference
    record = RunRecord(
        formula_id=formula_id,
        formula=serialize(formula),
        vars=variable_mask(formula).bit_count(),
        algorithm=config.algorithm,
        oracle_style=config.oracle_style,
        seed=config.seed,
        result=result,
        reference=reference,
        agree=agree,
        oracle_calls=oracle_calls,
        max_width=max_width,
        wall_time=elapsed,
    )
    return record, trace_rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# One encoder for every trace row; its output is that of
# json.dumps(row, sort_keys=True).
_ROW_ENCODER = json.JSONEncoder(sort_keys=True)


def _open_output(path: str, newline: str, opened: list) -> TextIO:
    """Open a text file for what goes to ``path``, and record it in
    ``opened`` as (handle, its name, the path it is to replace).

    For a regular file, or a path not there yet, this is a new file beside
    the file ``path`` names once symbolic links are followed; it gets the
    mode a plain ``open`` would give it, 0o666 under the umask.  Anything
    else, such as a device or a pipe (``/dev/stdout``), is opened and
    written in place, and recorded with no name."""
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        handle = open(path, "w", newline=newline)
        opened.append((handle, None, None))
        return handle
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    while True:
        temporary = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        handle = os.fdopen(fd, "w", newline=newline)
        opened.append((handle, temporary, target))
        return handle


def write_outputs(
    results: Iterable[tuple[RunRecord, list[dict]]], config: ExperimentConfig
) -> list[RunRecord]:
    """Consume the (record, trace rows) pairs as they are produced, writing
    each formula's rows and summary line as it arrives, and return the
    records.

    The trace and the summary go to new files beside their paths, which
    replace the paths (trace first) only after every pair is written.  On
    any exception the new files are deleted and the paths are left as they
    were.  A path that is not a regular file is written in place."""
    opened: list = []
    try:
        trace = summary = None
        if config.trace_path:
            trace = _open_output(config.trace_path, "\n", opened)
        if config.summary_path:
            handle = _open_output(config.summary_path, "", opened)
            summary = csv.writer(handle, lineterminator="\n")
            summary.writerow(SUMMARY_COLUMNS)
        encode = _ROW_ENCODER.encode
        records = []
        for record, rows in results:
            if trace is not None:
                trace.writelines([encode(row) + "\n" for row in rows])
            if summary is not None:
                summary.writerow([_cell(getattr(record, column)) for column in SUMMARY_COLUMNS])
            records.append(record)
        for handle, _, _ in opened:
            handle.close()
        for _, temporary, target in opened:
            if temporary is not None:
                os.replace(temporary, target)
    except BaseException:
        for handle, temporary, _ in opened:
            with contextlib.suppress(OSError):
                handle.close()
            if temporary is not None:
                with contextlib.suppress(OSError):
                    os.unlink(temporary)
        raise
    return records


def run(config: ExperimentConfig) -> list[RunRecord]:
    """Execute the configured algorithm on every formula, in input order."""
    algorithm = ALGORITHMS.get(config.algorithm)
    if algorithm is None:
        raise InvalidParams(
            f"unknown algorithm {config.algorithm!r}; choose from {tuple(ALGORITHMS)}"
        )
    if config.oracle_style not in algorithm.styles:
        raise InvalidParams(
            f"oracle style {config.oracle_style!r} not valid for {config.algorithm}; "
            f"choose from {algorithm.styles}"
        )
    if config.mode not in SPARSE_MODES:
        raise InvalidParams(f"unknown sparse mode {config.mode!r}; choose from {SPARSE_MODES}")
    limit = None  # read once per run, and passed to every reference
    if config.verify:
        limit = brute_force_limit()
        for formula in config.formulas:
            k = variable_mask(formula).bit_count()
            if k > limit:
                raise InvalidParams(
                    f"{k} variables exceeds the verification "
                    f"limit of {limit}; rerun with --no-verify or raise "
                    f"SELFRED_BRUTE_LIMIT"
                )
    oracle = algorithm.make_oracle(config)
    results = (
        _run_one(config, oracle, formula_id, formula, limit)
        for formula_id, formula in enumerate(config.formulas)
    )
    return write_outputs(results, config)


def _load_formulas(args: argparse.Namespace) -> list[Formula]:
    if args.inline is not None:
        return [parse(args.inline)]
    if args.file is not None:
        path = Path(args.file)
        try:
            text = path.read_bytes().decode("utf-8")  # newlines kept: offsets are the file's
        except UnicodeDecodeError as exc:
            raise FormulaSyntaxError(f"{path} is not UTF-8 text", exc.start) from None
        if path.suffix in (".cnf", ".dimacs"):
            return [parse_dimacs(text)]
        formulas, at = [], 0  # at: byte offset of the line in the file
        lines = zip(text.splitlines(), text.splitlines(keepends=True))
        for line_no, (line, whole) in enumerate(lines, start=1):
            try:
                if line.strip():
                    formulas.append(parse(line))
            except FormulaSyntaxError as exc:
                message = f"{exc.message} on line {line_no}"
                raise FormulaSyntaxError(message, at + exc.offset) from None
            at += len(whole.encode())
        return formulas
    params = {}
    for item in args.random:
        key, _, value = item.partition("=")
        if not value:
            raise InvalidParams(f"--random expects key=value items, got {item!r}")
        if key not in ("vars", "count", "seed", "budget"):
            raise InvalidParams(f"unknown --random key {key!r}")
        try:
            params[key] = int(value)
        except ValueError:
            raise InvalidParams(f"--random {key} must be an integer, got {value!r}") from None
    if "vars" not in params:
        raise InvalidParams("--random requires vars=<n>")
    return _random_batch(
        params["vars"], params.get("count", 1), params.get("seed", 0), params.get("budget")
    )


def _random_batch(var_count: int, count: int, seed: int, budget: int | None) -> list[Formula]:
    if count < 1:
        raise InvalidParams(f"count must be at least 1, got {count}")
    budget = 2 * var_count + 2 if budget is None else budget
    return [generate_random(var_count, budget, seed + i) for i in range(count)]


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--inline", metavar="FORMULA", help="formula text")
    source.add_argument(
        "--file",
        metavar="PATH",
        help="formula-per-line file, or DIMACS CNF for .cnf/.dimacs",
    )
    source.add_argument(
        "--random",
        nargs="+",
        metavar="KEY=VALUE",
        help="generate formulas: vars=N [count=N] [seed=N] [budget=N]",
    )
    parser.add_argument("--oracle", metavar="STYLE", help="oracle style")
    parser.add_argument("--seed", type=int, default=0, help="oracle seed (default 0)")
    verify = parser.add_mutually_exclusive_group()
    verify.add_argument(
        "--verify", dest="verify", action="store_true", default=True,
        help="compare against brute force (default)",
    )
    verify.add_argument(
        "--no-verify", dest="verify", action="store_false",
        help="skip brute-force verification",
    )
    parser.add_argument("--trace", metavar="PATH", help="write JSONL trace")
    parser.add_argument("--summary", metavar="PATH", help="write CSV summary")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfred",
        description="Self-reducibility tree-pruning SAT deciders and counting",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    decide = commands.add_parser("decide", help="decide satisfiability")
    decide.add_argument("algorithm", choices=["selector", "tally", "sparse"])
    _add_io_flags(decide)
    decide.add_argument(
        "--mode",
        choices=SPARSE_MODES,
        default="early_accept",
        help="sparse decider mode (default early_accept)",
    )

    count = commands.add_parser("count", help="count satisfying assignments")
    count.add_argument("algorithm", choices=["enum"])
    _add_io_flags(count)

    demo = commands.add_parser("demo", help="run a demonstration")
    demo.add_argument("name", choices=["naive-failure"])

    gen = commands.add_parser("gen", help="generate random formulas")
    gen.add_argument("--vars", type=int, required=True)
    gen.add_argument("--budget", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    return parser


def _print_records(records: list[RunRecord]) -> None:
    for r in records:
        reference = "" if r.reference is None else f" reference={_cell(r.reference)}"
        agree = "" if r.agree is None else (" agree" if r.agree else " MISMATCH")
        print(
            f"[{r.formula_id}] {r.formula} -> {_cell(r.result)}"
            f"{reference}{agree} calls={r.oracle_calls} ({r.wall_time * 1000:.2f} ms)"
        )
    verified = [r for r in records if r.agree is not None]
    if verified:
        agreeing = sum(r.agree for r in verified)
        print(f"{agreeing}/{len(verified)} verified records agree")


def _demo_naive_failure() -> int:
    report = demonstrate_naive_failure()
    print("Per-node guess sets cannot determine the model count:")
    for i, witness in enumerate(report.witnesses, start=1):
        guesses = " / ".join(str(list(g)) for g in witness.guess_sets)
        print(
            f"  witness {i}: {serialize(witness.formula)}  "
            f"root={witness.root_count} "
            f"children=({witness.left_count}, {witness.right_count})  "
            f"guesses {guesses}"
        )
    first, second = report.witnesses
    print(
        "  both witnesses show guess sets {0,1} at all three nodes, yet their "
        f"root counts differ ({first.root_count} vs {second.root_count})."
    )
    return 0


def _run_gen(args: argparse.Namespace) -> int:
    formulas = _random_batch(args.vars, args.count, args.seed, args.budget)
    # One write per formula: under unbuffered stdout a single large write to a
    # pipe whose reader is gone can end short, and text I/O drops the rest
    # silently, where the next small write raises BrokenPipeError.
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        for formula in formulas:
            out.write(serialize(formula) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            status = _demo_naive_failure()
        elif args.command == "gen":
            status = _run_gen(args)
        else:
            algorithm = "enum_count" if args.command == "count" else args.algorithm
            config = ExperimentConfig(
                algorithm=algorithm,
                formulas=_load_formulas(args),
                oracle_style=args.oracle or ALGORITHMS[algorithm].styles[0],
                seed=args.seed,
                mode=getattr(args, "mode", "early_accept"),
                verify=args.verify,
                trace_path=args.trace,
                summary_path=args.summary,
            )
            records = run(config)
            _print_records(records)
            status = 1 if any(r.agree is False for r in records) else 0
        sys.stdout.flush()  # so that a reader gone early shows here, not at exit
    except BrokenPipeError:
        # Point stdout at os.devnull: what is left in its buffer is flushed
        # at exit, and would fail on the closed pipe once more.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 2
    except (SelfReducibilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
