"""One-site mutants of named kernel functions, run against the test suite.

Each mutant changes one operator or one integer in one function of
``src/selfred``: a comparison flipped, ``and`` and ``or`` swapped, an
arithmetic or bitwise operator swapped, or an integer raised or lowered by
one.  Annotations are never mutated; under ``from __future__ import
annotations`` they are never run.  Each mutant runs in a temporary copy of
``src/``, ``tests/``, ``bench/`` and ``pyproject.toml`` against the test
files with ``-x``, a timeout and a fixed Hypothesis seed, writing no
bytecode.  A failed test is a kill; a run that cannot collect the tests is
an error, and the unmutated tree must pass before any mutant runs.  A
failure at an assertion on wall-clock time is no kill: the mutant is run
again with that test deselected.  Every mutant runs at the first of SEEDS;
a survivor runs again at the others, and with ``--parent`` the other
checkout's tests run on each survivor at every seed.  The record lists as
lost kills the mutants that the other checkout's tests kill at a seed at
which this checkout's tests let them survive.

    python tools/mutants.py --out MUTANTS.json --jobs 2   # every mutant, every test file
    python tools/mutants.py --out MUTANTS.json --parent ../old
        # and, for each survivor, the test files of another checkout
    python tools/mutants.py --named                        # the NAMED pairs, exit 1 if one survives

Standard library only.  The full run takes about an hour with two jobs and
is not part of the Tier-1 suite.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The functions whose mutants are run, by file under src/selfred.
FUNCTIONS = {
    "formula.py": [
        "split", "_split", "_folded", "_negated", "self_reduce", "place_variables",
        "_map_vars", "_flat", "_truth_table", "_tables", "_block_tables", "_block_variant",
        "first_model", "brute_force_count", "brute_force_sat", "evaluate",
        "ModelStore.holds", "ModelStore.add",
    ],
    "oracles.py": ["find_model", "_component_model", "_disjoint_groups"],
}

# Test files that fail fastest on a kernel mutant run first; the rest follow
# in name order, and the acceptance criteria, which build a corpus, last.
FIRST = ["test_formula.py", "test_mask_paths.py", "test_oracles.py", "test_counting.py", "test_pruning.py"]
LAST = ["test_acceptance.py"]

# One-line mutants, each with the test that must fail on it: the text to
# replace (once in the file, with the next line where the line alone is not)
# and its replacement.
NAMED = [
    (
        "src/selfred/formula.py",
        "memo[id(child)] = true_child, false_child, child",
        "memo[id(child)] = true_child, false_child, None",
        "tests/test_formula.py::TestCofactorMemo::test_a_freed_node_is_not_taken_for_a_new_one",
    ),
    (
        "src/selfred/pruning.py",
        "if len(text) > root_length:",
        "if len(text) >= root_length:",
        "tests/test_pruning.py::TestEncodingInvariant::test_child_as_long_as_the_input_is_kept",
    ),
    (
        "src/selfred/oracles.py",
        "self.call_counter += 1\n        image = self._query(formula)",
        "image = self._query(formula)",
        "tests/test_oracles.py::TestOneWrappedMethodPerQuery::test_wrapper_counts_equal_call_counters",
    ),
    (
        "src/selfred/oracles.py",
        "self.call_counter += 1\n        first = self._query(a, b)",
        "first = self._query(a, b)",
        "tests/test_oracles.py::TestSelectors::test_call_counter",
    ),
    (
        "src/selfred/oracles.py",
        "self.call_counter += 1\n        values = self._query(formula)",
        "values = self._query(formula)",
        "tests/test_oracles.py::TestTwoEnumerator::test_call_counter",
    ),
    (
        "src/selfred/oracles.py",
        "if not isinstance(image, str):",
        "if False:",
        "tests/test_pruning.py::TestImageContract::test_sparse_image_must_be_a_string",
    ),
]

COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
BINARY_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.BitXor: ast.BitOr, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}
BOOL_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Mod: "%",
    ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^", ast.LShift: "<<", ast.RShift: ">>",
    ast.And: "and", ast.Or: "or",
}
OPERATORS = [
    "comparison: < <=, > >=, == !=, is / is not, in / not in, each to its partner",
    "boolean: and / or",
    "arithmetic and bitwise: + -, * //, % to //, & |, ^ to |, << >> (also in augmented assignments)",
    "integer: n + 1 and n - 1 for every int literal",
]

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)
LOCATION = re.compile(r"^(\S+\.py):(\d+): ", re.MULTILINE)
CLOCK_WORDS = ("perf_counter", "elapsed")

TIMEOUT = 300  # seconds per test run
SEEDS = (0, 1, 2)  # Hypothesis seeds: every mutant at the first, survivors at all


def _line_starts(data: bytes) -> list[int]:
    starts = [0]
    for at, byte in enumerate(data):
        if byte == 0x0A:
            starts.append(at + 1)
    return starts


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    scope = tree.body
    *owners, last = name.split(".")
    for owner in owners:
        scope = next(n for n in scope if isinstance(n, ast.ClassDef) and n.name == owner).body
    return next(n for n in scope if isinstance(n, ast.FunctionDef) and n.name == last)


def _code_nodes(node: ast.AST):
    """The nodes under ``node``, annotations and f-strings left out."""
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST) and not isinstance(child, ast.JoinedStr):
                yield child
                yield from _code_nodes(child)


def _operator_span(data: bytes, starts, before: ast.AST, after: ast.AST, symbol: str) -> tuple[int, int]:
    """The byte span of ``symbol`` between two operands."""
    low = starts[before.end_lineno - 1] + before.end_col_offset
    high = starts[after.lineno - 1] + after.col_offset
    gap = data[low:high].decode()
    if symbol[0].isalpha():
        pattern = r"\b" + r"\s+".join(map(re.escape, symbol.split())) + r"\b"
    else:
        pattern = r"(?<![<>=!*/])" + re.escape(symbol) + r"(?![<>=*/])"
    found = [m for m in re.finditer(pattern, gap)]
    if len(found) != 1:
        raise ValueError(f"cannot place {symbol!r} in {gap!r}")
    start = low + len(gap[: found[0].start()].encode())
    return start, start + len(found[0].group().encode())


def enumerate_mutants() -> list[dict]:
    mutants = []
    for file_name, names in FUNCTIONS.items():
        path = f"src/selfred/{file_name}"
        data = (ROOT / path).read_bytes()
        starts = _line_starts(data)
        tree = ast.parse(data)
        for name in names:
            sites = []
            for node in _code_nodes(_function(tree, name)):
                if isinstance(node, ast.Compare):
                    for before, op, after in zip([node.left, *node.comparators], node.ops, node.comparators):
                        if type(op) in COMPARE_SWAPS:
                            sites.append((before, after, op, COMPARE_SWAPS[type(op)], ""))
                elif isinstance(node, ast.BoolOp):
                    for before, after in zip(node.values, node.values[1:]):
                        sites.append((before, after, node.op, BOOL_SWAPS[type(node.op)], ""))
                elif isinstance(node, ast.BinOp) and type(node.op) in BINARY_SWAPS:
                    sites.append((node.left, node.right, node.op, BINARY_SWAPS[type(node.op)], ""))
                elif isinstance(node, ast.AugAssign) and type(node.op) in BINARY_SWAPS:
                    sites.append((node.target, node.value, node.op, BINARY_SWAPS[type(node.op)], "="))
                elif isinstance(node, ast.Constant) and type(node.value) is int:
                    low = starts[node.lineno - 1] + node.col_offset
                    high = starts[node.end_lineno - 1] + node.end_col_offset
                    for step in (1, -1):
                        mutants.append(_mutant(path, name, low, high, data, str(node.value + step)))
            for before, after, op, swapped, suffix in sites:
                low, high = _operator_span(data, starts, before, after, SYMBOLS[type(op)] + suffix)
                mutants.append(_mutant(path, name, low, high, data, SYMBOLS[swapped] + suffix))
    mutants.sort(key=lambda m: (m["file"], m["start"], m["replacement"]))
    for number, mutant in enumerate(mutants):
        mutant["id"] = number
    return mutants


def _mutant(path, function, low, high, data, replacement) -> dict:
    return {
        "file": path,
        "function": function,
        "line": data[:low].count(b"\n") + 1,
        "start": low,
        "end": high,
        "original": data[low:high].decode(),
        "replacement": replacement,
    }


def test_files(tests: Path) -> list[str]:
    names = sorted(p.name for p in tests.glob("test_*.py"))
    middle = [n for n in names if n not in FIRST and n not in LAST]
    return [f"tests/{n}" for n in FIRST + middle + LAST if n in names]


def _copy_tree(into: Path, tests: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", into / "src", ignore=ignore)
    shutil.copytree(tests, into / "tests", ignore=ignore)
    shutil.copytree(ROOT / "bench", into / "bench", ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(into: Path, args: list[str]) -> tuple[str, str]:
    """Runs pytest in ``into``: ("killed" | "survived" | "timeout" |
    "error", output).  Only a failed test is a kill; a test file that
    cannot be collected, a usage error or no test collected is an error."""
    env = {**os.environ, "PYTHONPATH": str(into / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=line", "-rfE", *args]
    try:
        done = subprocess.run(command, cwd=into, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    status = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return status, done.stdout + done.stderr


def _clock_failure(into: Path, output: str) -> bool:
    """Whether the first failure is a test's assertion on the clock."""
    location = LOCATION.search(output)
    if location is None:
        return False
    path = Path(location.group(1))
    path = path if path.is_absolute() else into / path
    if path.parent != into / "tests":
        return False
    try:
        line = path.read_text().splitlines()[int(location.group(2)) - 1]
    except (OSError, IndexError):
        return False
    return any(word in line for word in CLOCK_WORDS)


def run_mutant(mutant: dict | None, tests: Path, seed: int) -> dict:
    """Status and first failing test of one mutant (None: the unmutated
    tree) against ``tests``."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as name:
        into = Path(name)
        _copy_tree(into, tests)
        if mutant is not None:
            target = into / mutant["file"]
            data = target.read_bytes()
            target.write_bytes(data[: mutant["start"]] + mutant["replacement"].encode() + data[mutant["end"] :])
        args = ["-x", f"--hypothesis-seed={seed}", *test_files(into / "tests")]
        clock_kills: list[str] = []
        while True:
            status, output = _pytest(into, args + [f"--deselect={t}" for t in clock_kills])
            failed = FAILED.search(output)
            first = failed.group(1) if failed else None
            if status != "killed" or first is None or not _clock_failure(into, output):
                break
            clock_kills.append(first)
    return {
        "status": status,
        "first_failure": first if status == "killed" else None,
        "clock_kills": clock_kills,
        "seconds": round(time.perf_counter() - started, 1),
        **({"output": output[-2000:]} if mutant is None and status != "survived" else {}),
    }


def _commit(at: Path) -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=at, capture_output=True, text=True)
    return done.stdout.strip() or None


def _digest(tests: Path) -> str:
    """sha256 over the test files' names and bytes, which names the tests
    run whether or not they are committed."""
    digest = hashlib.sha256()
    for path in sorted(tests.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _print(mutant: dict, side: str, seed: int, result: dict) -> None:
    print(f"{mutant['id']:4} {side:6} seed {seed} {result['status']:8} {mutant['function']}:{mutant['line']} "
          f"{mutant['original']!r} -> {mutant['replacement']!r} {result['first_failure'] or ''}", flush=True)


def run_all(args) -> int:
    started = time.perf_counter()
    sides = {"change": ROOT / "tests"}
    if args.parent:
        sides["parent"] = Path(args.parent).resolve() / "tests"
    with ThreadPoolExecutor(args.jobs) as pool:
        baselines = {(side, seed): pool.submit(run_mutant, None, tests, seed)
                     for side, tests in sides.items() for seed in SEEDS}
        failing = {key: f.result() for key, f in baselines.items() if f.result()["status"] != "survived"}
    for (side, seed), result in failing.items():
        print(f"the unmutated tree does not pass the {side} tests at seed {seed}: {result['status']}")
        print(result.get("output", ""))
    if failing:
        return 1

    mutants = enumerate_mutants()
    with ThreadPoolExecutor(args.jobs) as pool:
        futures = [pool.submit(run_mutant, m, sides["change"], SEEDS[0]) for m in mutants]
        for mutant, future in zip(mutants, futures):
            mutant.update(future.result())
            _print(mutant, "change", SEEDS[0], mutant)
        # Survivors at the other seeds, and under the other checkout's
        # tests at every seed.
        survivors = [m for m in mutants if m["status"] == "survived"]
        runs = [(m, side, seed) for m in survivors for side in sides for seed in SEEDS
                if (side, seed) != ("change", SEEDS[0])]
        futures = [pool.submit(run_mutant, m, sides[side], seed) for m, side, seed in runs]
        for (mutant, side, seed), future in zip(runs, futures):
            result = future.result()
            mutant.setdefault("reruns", {}).setdefault(side, {})[str(seed)] = result
            _print(mutant, side, seed, result)

    lost = []
    for mutant in survivors:
        reruns = mutant["reruns"]
        change = {**reruns.get("change", {}), str(SEEDS[0]): mutant}
        if any(result["status"] in ("killed", "timeout") and change[seed]["status"] == "survived"
               for seed, result in reruns.get("parent", {}).items()):
            lost.append(mutant["id"])
    counts = {}
    for mutant in mutants:
        counts[mutant["status"]] = counts.get(mutant["status"], 0) + 1
    record = {
        "commit": _commit(ROOT),
        "tests_sha256": _digest(sides["change"]),
        "tests": test_files(sides["change"]),
        "hypothesis_seeds": list(SEEDS),
        "timeout_s": TIMEOUT,
        "operators": OPERATORS,
        "functions": FUNCTIONS,
        "counts": counts,
        "lost_kills": lost if args.parent else None,
        "total_s": round(time.perf_counter() - started, 1),
        "mutants": mutants,
    }
    if args.parent:
        parent = Path(args.parent).resolve()
        record["parent"] = {
            "commit": _commit(parent),
            "tests_sha256": _digest(sides["parent"]),
            "tests": test_files(sides["parent"]),
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"counts": counts, "lost_kills": record["lost_kills"]}))
    return 0


def run_named() -> int:
    """Each named test must pass as the code is and fail on its mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as name:
        _copy_tree(Path(name), ROOT / "tests")
        status, output = _pytest(Path(name), [test for *_, test in NAMED])
    if status != "survived":
        print(output)
        print("the named tests do not all pass on the code as it is")
        return 1
    survived = 0
    for path, original, replacement, test in NAMED:
        with tempfile.TemporaryDirectory(prefix="mutant-") as name:
            into = Path(name)
            _copy_tree(into, ROOT / "tests")
            target = into / path
            text = target.read_text()
            if text.count(original) != 1:
                print(f"{path}: {original!r} does not occur exactly once")
                return 1
            target.write_text(text.replace(original, replacement))
            status, _ = _pytest(into, [test])
        print(f"{status:8} {path}: {original!r} -> {replacement!r} against {test}")
        survived += status != "killed"
    return 1 if survived else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--named", action="store_true", help="run only the NAMED mutant and test pairs")
    parser.add_argument("--out", default="MUTANTS.json", help="where to write the record")
    parser.add_argument("--parent", help="a checkout whose tests/ run on each survivor")
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at once")
    args = parser.parse_args(argv)
    if args.named:
        return run_named()
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
