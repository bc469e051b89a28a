"""Fuzzing of ``cli.main(argv)``: every argv and every input file must end in
exit code 0, 1 or 2 (returned, or argparse's ``SystemExit``), with no other
exception escaping and nothing written outside the run's own directory.

Ranges bound only sizes (variables, formulas, node budget, nesting), never
kinds of input: junk words, malformed items, raw bytes and unusable paths are
all drawn.  ``generate_random`` takes time superlinear in its budget, so
``vars``, ``count`` and ``budget`` stay small.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from selfred import cli
from selfred.formula import MAX_NESTING
from selfred.oracles import ENUMERATOR_STYLES, SELECTOR_STYLES, SPARSE_STYLES, TALLY_STYLES
from selfred.pruning import SPARSE_MODES

# Text as a real argv can hold it: no NUL, and surrogates only as Python
# decodes bytes that are not UTF-8 (U+DC80..U+DCFF).
junk = st.text(
    st.characters(blacklist_characters="\x00")
    | st.integers(0xDC80, 0xDCFF).map(chr),
    max_size=12,
)


def once_in(odds: int) -> st.SearchStrategy:
    """True about once in ``odds`` draws.  Hypothesis favours the ends of a
    range, so True is a middle value."""
    return st.integers(0, odds - 1).map(lambda i: i == odds // 2)


def or_junk(strategy: st.SearchStrategy, odds: int = 10) -> st.SearchStrategy:
    """``strategy``, with junk text once in about ``odds`` draws."""
    return once_in(odds).flatmap(lambda rare: junk if rare else strategy)


STYLES = ENUMERATOR_STYLES + SELECTOR_STYLES + SPARSE_STYLES + TALLY_STYLES
COMMANDS = ("decide", "count", "demo", "gen")
RANDOM_KEYS = ("vars", "count", "seed", "budget")
# A range per key, for --random and gen; generate_random's time grows faster
# than its budget.
RANDOM_RANGES = {"vars": (-1, 12), "count": (-1, 3), "seed": (-5, 50), "budget": (-1, 30)}


def number_text(low: int, high: int) -> st.SearchStrategy:
    """An int in range, written as int() reads it or nearly so."""
    written = st.sampled_from([str] * 7 + [" {}".format, "+{}".format, "{}.0".format, hex])
    return st.tuples(st.integers(low, high), written).map(lambda t: t[1](t[0]))


@st.composite
def random_items(draw) -> list[str]:
    items = [] if draw(once_in(6)) else [f"vars={draw(number_text(*RANDOM_RANGES['vars']))}"]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["pair"] * 8 + ["key", "junk"]))
        if kind == "pair":
            key = draw(or_junk(st.sampled_from(RANDOM_KEYS)))
            low, high = RANDOM_RANGES.get(key, (-3, 12))
            value = draw(or_junk(number_text(low, high)))
            items.append(f"{key}={value}")
        elif kind == "key":
            items.append(draw(st.sampled_from(RANDOM_KEYS)))
        else:
            items.append(draw(junk))
    return items


formula_texts = st.recursive(
    st.sampled_from(["x1", "x2", "x3", "x12", "x999999", "x1000000", "T", "F", "x0", "x", "y1"]),
    lambda inner: st.one_of(
        inner.map(lambda t: f"!{t}"),
        inner.map(lambda t: f"({t})"),
        st.tuples(inner, st.sampled_from([" & ", " | ", "&", " ^ ", " "]), inner).map(
            "".join
        ),
    ),
    max_leaves=12,
)


@st.composite
def deep_formulas(draw) -> str:
    depth = draw(st.integers(MAX_NESTING - 2, MAX_NESTING + 2) | st.integers(0, 8))
    shape = draw(st.sampled_from(["negations", "parentheses", "unbalanced"]))
    if shape == "negations":
        return "!" * depth + "x1"
    if shape == "parentheses":
        return "(" * depth + "x1 | x2" + ")" * depth
    return "(" * depth + "x1"


inline_texts = st.one_of(formula_texts, formula_texts, deep_formulas(), junk)


@st.composite
def dimacs_texts(draw) -> str:
    lines = []
    if draw(st.booleans()):
        lines.append("c " + draw(junk))
    if not draw(once_in(6)):
        lines.append(
            f"p cnf {draw(or_junk(number_text(-1, 6) | st.just('999999')))} "
            f"{draw(or_junk(number_text(-1, 6)))}"
        )
    for _ in range(draw(st.integers(0, 5))):
        literal = st.integers(-7, 7).map(str) | st.sampled_from(
            ["999999", "-999999", "1000000", "1" + "0" * 4400]  # the last beyond int()'s limit
        )
        literals = draw(st.lists(literal, max_size=5))
        if not draw(once_in(6)):
            literals.append("0")
        lines.append(" ".join(literals))
    if draw(once_in(4)):
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return "\n".join(lines)


def to_bytes(text: str) -> bytes:
    return text.encode("utf-8", "surrogateescape")  # escaped surrogates become raw bytes


file_contents = st.one_of(
    st.binary(max_size=64),
    st.lists(formula_texts | junk, max_size=4).map(lambda lines: to_bytes("\n".join(lines))),
    dimacs_texts().map(to_bytes),
    st.tuples(dimacs_texts(), st.binary(max_size=4)).map(lambda t: to_bytes(t[0]) + t[1]),
)


@st.composite
def output_paths(draw, root: str) -> str:
    """A path under ``root``: a new file, an existing directory, a file in a
    directory that is not there, or the input file itself."""
    kind = draw(st.sampled_from(["new", "new", "named", "directory", "missing_parent", "input"]))
    if kind == "new":
        return os.path.join(root, draw(st.sampled_from(["out.jsonl", "out.csv", "a b"])))
    if kind == "named":  # any file name, never "." or ".."
        return os.path.join(root, "f" + draw(junk).replace(os.sep, "_"))
    if kind == "directory":
        return root
    if kind == "missing_parent":
        return os.path.join(root, "absent", "out.txt")
    return os.path.join(root, "input.txt")


@st.composite
def argvs(draw, root: str) -> tuple[list[str], bytes | None, str]:
    """(argv, input file contents or None, input file name)."""
    command = draw(st.sampled_from(("decide",) * 4 + ("count",) * 3 + ("gen",) * 2 + ("demo", "")))
    if not command:
        command = draw(junk)
    argv = [command]
    contents, name = None, draw(st.sampled_from(["input.txt", "input.cnf", "input.dimacs"]))
    if command == "demo":
        argv.append(draw(or_junk(st.just("naive-failure"))))
    elif command == "gen":
        for key in RANDOM_KEYS:  # gen's flags are --random's keys
            if not draw(once_in(10)):
                argv += [f"--{key}", draw(or_junk(number_text(*RANDOM_RANGES[key])))]
        if draw(st.booleans()):
            argv += ["--out", draw(output_paths(root))]
    else:
        choices = ["selector", "tally", "sparse"] if command == "decide" else ["enum"]
        argv.append(draw(or_junk(st.sampled_from(choices))))
        count = draw(st.sampled_from([1] * 8 + [0, 2]))  # exactly one is required
        sources = draw(st.lists(st.sampled_from(["inline", "file", "random"]), min_size=count,
                                max_size=count))
        for source in sources:
            if source == "inline":
                argv += ["--inline", draw(inline_texts)]
            elif source == "random":
                argv += ["--random", *draw(random_items())]
            else:
                contents = draw(file_contents)
                missing = draw(once_in(10))
                argv += ["--file", os.path.join(root, "absent.txt" if missing else name)]
        if draw(st.booleans()):  # any table's style, valid for this algorithm or not
            argv += ["--oracle", draw(or_junk(st.sampled_from(STYLES)))]
        if command == "decide" and draw(st.booleans()):
            argv += ["--mode", draw(or_junk(st.sampled_from(SPARSE_MODES)))]
        if draw(st.booleans()):
            argv += ["--seed", draw(or_junk(number_text(-5, 50)))]
        if draw(st.booleans()):
            argv.append(draw(st.sampled_from(["--no-verify", "--verify"])))
        for flag in ("--trace", "--summary"):
            if draw(st.booleans()):
                argv += [flag, draw(output_paths(root))]
    if draw(once_in(20)):
        stray = draw(junk | st.sampled_from(["--bogus", "-h"]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv, contents, name


ROOT = "<root>"  # placeholder in drawn paths, replaced by each example's directory


def listing(directory: Path) -> set[str]:
    return {str(path.relative_to(directory)) for path in directory.rglob("*")}


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argvs(ROOT))
def test_main_exits_0_1_or_2(case):
    argv, contents, name = case
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch, "run")
        cwd = Path(scratch, "cwd")  # the run's working directory, to stay empty
        root.mkdir()
        cwd.mkdir()
        argv = [arg.replace(ROOT, str(root)) for arg in argv]
        inputs = set()
        if contents is not None:
            (root / name).write_bytes(contents)
            inputs.add(name)
        outputs = {
            os.path.relpath(argv[i + 1], root)
            for i, arg in enumerate(argv[:-1])
            if arg in ("--trace", "--summary", "--out")
        }
        before = os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                try:
                    status = cli.main(argv)
                except SystemExit as exc:  # argparse: --help, or a usage error
                    status = exc.code
        finally:
            os.chdir(before)
        event(f"{argv[0] if argv[0] in COMMANDS else 'junk command'}: exit {status}")
        assert status in (0, 1, 2), argv
        assert listing(cwd) == set(), argv
        assert listing(root) <= inputs | outputs, argv
        assert sorted(p.name for p in Path(scratch).iterdir()) == ["cwd", "run"], argv
