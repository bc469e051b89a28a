import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from selfred import cli
from selfred.cli import ExperimentConfig, main, run
from selfred.errors import InvalidParams
from selfred.formula import BRUTE_FORCE_LIMIT_ENV, MAX_NESTING, And, Not, Or, parse, serialize
from selfred.generate import generate_corpus, generate_random
from selfred.pruning import SPARSE_MODES


def read(path):
    return path.read_bytes()


class TestRun:
    def test_selector_example_record(self):
        records = run(
            ExperimentConfig(
                algorithm="selector",
                formulas=[parse("x1 & !x1")],
                oracle_style="honest",
            )
        )
        (record,) = records
        assert record.result is False
        assert record.agree is True
        assert record.oracle_calls == 1

    def test_enum_example_record(self):
        records = run(
            ExperimentConfig(
                algorithm="enum_count",
                formulas=[parse("x1 | x2")],
                oracle_style="exact_plus_offset",
                seed=7,
            )
        )
        (record,) = records
        assert record.result == 3
        assert record.agree is True

    def test_style_validation(self):
        with pytest.raises(InvalidParams):
            run(
                ExperimentConfig(
                    algorithm="tally",
                    formulas=[parse("x1")],
                    oracle_style="scatter",
                )
            )

    def test_verify_cap(self, monkeypatch):
        monkeypatch.setenv("SELFRED_BRUTE_LIMIT", "3")
        with pytest.raises(InvalidParams):
            run(
                ExperimentConfig(
                    algorithm="selector",
                    formulas=[parse("x1 & x2 & x3 & x4")],
                    oracle_style="honest",
                )
            )

    def test_deciders_above_verification_limit(self):
        # 26 variables is past the 24-variable verification limit, so only
        # the oracles' exact counter answers; F | !F and F & !F fix the verdict.
        big = generate_random(26, 54, seed=7)
        formulas = [Or(big, Not(big)), And(big, Not(big))]
        for algorithm, style in (
            ("selector", "honest"),
            ("tally", "collision_rich"),
            ("sparse", "singleton"),
        ):
            records = run(
                ExperimentConfig(
                    algorithm=algorithm, formulas=formulas, oracle_style=style, verify=False
                )
            )
            assert [r.result for r in records] == [True, False]

    def test_unknown_algorithm(self):
        with pytest.raises(InvalidParams, match="unknown algorithm"):
            run(ExperimentConfig(algorithm="walk", formulas=[parse("x1")], oracle_style="honest"))

    def test_unknown_mode_rejected_before_work(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with pytest.raises(InvalidParams, match="mode"):
            run(
                ExperimentConfig(
                    algorithm="sparse",
                    formulas=[parse("x1 | x2")],
                    oracle_style="singleton",
                    mode="eager",
                    trace_path=str(trace),
                )
            )
        assert not trace.exists()


class TestCommandLine:
    def test_decide_selector_inline(self, capsys):
        assert main(["decide", "selector", "--inline", "x1 & !x1", "--oracle", "honest"]) == 0
        out = capsys.readouterr().out
        assert "false" in out
        assert "1/1 verified records agree" in out

    def test_count_enum_inline(self, capsys):
        assert main(
            ["count", "enum", "--inline", "x1 | x2", "--oracle", "exact_plus_offset", "--seed", "7"]
        ) == 0
        assert "-> 3" in capsys.readouterr().out

    def test_parse_failure_exit_code(self, capsys):
        assert main(["decide", "selector", "--inline", "x1 &"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_random_batch_all_agree(self, tmp_path):
        summary = tmp_path / "s.csv"
        code = main(
            [
                "decide", "sparse",
                "--random", "vars=8", "count=30", "seed=3",
                "--oracle", "scatter",
                "--verify",
                "--summary", str(summary),
            ]
        )
        assert code == 0
        rows = summary.read_text().splitlines()
        assert rows[0].startswith("formula_id,vars,algorithm")
        assert len(rows) == 31
        assert all(",true," in row or row.endswith("true") for row in rows[1:])

    def test_formula_file_input(self, tmp_path):
        source = tmp_path / "formulas.txt"
        source.write_text("x1 & !x1\nx1 | x2\n\n!x3\n")
        summary = tmp_path / "s.csv"
        assert main(
            ["decide", "tally", "--file", str(source), "--summary", str(summary)]
        ) == 0
        assert len(summary.read_text().splitlines()) == 4

    def test_dimacs_file_input(self, tmp_path, capsys):
        source = tmp_path / "input.cnf"
        source.write_text("c tiny\np cnf 2 2\n1 2 0\n-1 2 0\n")
        assert main(["decide", "tally", "--file", str(source)]) == 0
        assert "-> true" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["formulas.txt", "input.cnf"])
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, name):
        source = tmp_path / name
        body = b"x1 & \xff\n" if name.endswith(".txt") else b"p cnf 1 1\n1 \xff 0\n"
        source.write_bytes(body)
        assert main(["decide", "tally", "--file", str(source)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err
        assert f"(byte offset {body.index(0xFF)})" in err

    @pytest.mark.parametrize(
        "first_line, offset",
        [
            ("x1 | x2\n", 12),
            ("x1 |\u00a0x2\n", 13),  # the no-break space is one character but two bytes
            ("x1 | x2\r\n", 13),  # "\r\n" is one line break of two bytes
        ],
    )
    def test_file_syntax_error_names_line_and_file_offset(
        self, tmp_path, capsys, first_line, offset
    ):
        source = tmp_path / "formulas.txt"
        source.write_bytes((first_line + "x1 &\n").encode())
        assert main(["decide", "tally", "--file", str(source)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and f"(byte offset {offset})" in err

    def test_dimacs_syntax_error_offset_counts_crlf_bytes(self, tmp_path, capsys):
        source = tmp_path / "input.cnf"
        source.write_bytes(b"p cnf 2 1\r\n1 2 0\r\n1 x 0\r\n")
        assert main(["decide", "tally", "--file", str(source)]) == 2
        err = capsys.readouterr().err
        assert "bad literal on line 3" in err and "(byte offset 20)" in err

    def test_demo_naive_failure(self, capsys):
        assert main(["demo", "naive-failure"]) == 0
        out = capsys.readouterr().out
        assert "witness 1" in out and "witness 2" in out
        assert "0 vs 1" in out

    def test_gen_deterministic(self, capsys):
        assert main(["gen", "--vars", "3", "--budget", "9", "--seed", "1", "--count", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--vars", "3", "--budget", "9", "--seed", "1", "--count", "4"]) == 0
        assert capsys.readouterr().out == first
        for line in first.strip().splitlines():
            parse(line)

    def test_gen_every_variable_occurs(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main(["gen", "--vars", "10", "--count", "50", "--seed", "5", "--out", str(out)]) == 0
        from selfred.formula import variables

        for line in out.read_text().splitlines():
            assert variables(parse(line)) == frozenset(range(1, 11))

    def test_mode_flag(self, tmp_path):
        for mode in SPARSE_MODES:
            assert main(
                [
                    "decide", "sparse",
                    "--inline", "(x1 | x2) & (x3 | x4)",
                    "--oracle", "singleton",
                    "--mode", mode,
                ]
            ) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["decide", "selector", "--random", "vars=4", "count=5", "seed=2",
             "--oracle", "adversarial", "--seed", "9"],
            ["decide", "tally", "--random", "vars=5", "count=5", "seed=2",
             "--oracle", "spread"],
            ["decide", "sparse", "--random", "vars=5", "count=5", "seed=2",
             "--oracle", "singleton", "--mode", "capped_continue"],
            ["count", "enum", "--random", "vars=5", "count=5", "seed=2",
             "--oracle", "woeginger"],
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, argv):
        outputs = []
        for attempt in ("a", "b"):
            trace = tmp_path / f"{attempt}.jsonl"
            summary = tmp_path / f"{attempt}.csv"
            code = main(argv + ["--trace", str(trace), "--summary", str(summary)])
            assert code == 0
            outputs.append((read(trace), read(summary)))
        assert outputs[0] == outputs[1]

    def test_trace_is_valid_jsonl(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(
            [
                "count", "enum",
                "--random", "vars=6", "count=10", "seed=4",
                "--trace", str(trace),
            ]
        ) == 0
        for line in trace.read_text().splitlines():
            row = json.loads(line)
            assert row["algorithm"] == "enum_count"
            assert "linkage" in row

    def test_random_requires_vars(self, capsys):
        assert main(["decide", "selector", "--random", "count=3"]) == 2
        assert "vars" in capsys.readouterr().err

    def test_no_verify_skips_reference(self, capsys):
        assert main(
            ["decide", "selector", "--inline", "x1 | x2", "--no-verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "reference" not in out

    def test_bad_brute_limit_exit_code(self, monkeypatch, capsys):
        monkeypatch.setenv("SELFRED_BRUTE_LIMIT", "abc")
        assert main(["decide", "tally", "--inline", "x1"]) == 2
        assert "error: SELFRED_BRUTE_LIMIT" in capsys.readouterr().err

    def test_non_integer_random_value_exit_code(self, capsys):
        assert main(["decide", "tally", "--random", "vars=x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "vars" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["decide", "tally", "--random", "vars=3", "count=-2"],
            ["gen", "--vars", "3", "--count", "-1"],
        ],
    )
    def test_count_below_one_exit_code(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "count" in captured.err


class TestBrokenPipe:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decide", "selector", "--random", "vars=4", "count=3000"],
            ["gen", "--vars", "30", "--count", "3000"],
        ],
        ids=["records", "gen"],
    )
    # Block-buffered stdout on a pipe, as by default; and unbuffered, where a
    # single large write could end short and drop its rest without an error.
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_reader_gone_after_one_line(self, argv, unbuffered):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        process = subprocess.Popen(
            [sys.executable, "-m", "selfred.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert process.stdout.readline()
        process.stdout.close()
        _, err = process.communicate(timeout=120)
        assert process.returncode == 2
        assert b"Traceback" not in err and b"Exception ignored" not in err


def nested_at(levels: int) -> str:
    """A formula whose deepest point sits under ``levels`` "!" and "(" levels,
    alternating & and | over three variables so that every level is a node."""
    text = "x1"
    for level in range(levels):
        op = "&" if level % 2 else "|"
        text = f"!{text}" if level % 3 == 2 else f"(x{level % 3 + 1} {op} {text})"
    return text


class TestDeepNesting:
    COMMANDS = [["decide", "selector"], ["decide", "tally"], ["decide", "sparse"], ["count", "enum"]]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("shape", ["alternating", "parentheses", "negations"])
    def test_formula_at_the_limit_runs_end_to_end(self, tmp_path, capsys, command, shape):
        text = {
            "alternating": nested_at(MAX_NESTING),
            "parentheses": "(" * MAX_NESTING + "x1 | x2" + ")" * MAX_NESTING,
            "negations": "!" * MAX_NESTING + "x1",
        }[shape]
        path = tmp_path / "deep.txt"
        path.write_text(text + "\n")
        summary = tmp_path / "summary.csv"
        assert main(command + ["--file", str(path), "--summary", str(summary)]) == 0
        assert "1/1 verified records agree" in capsys.readouterr().out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_level_deeper_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "deep.txt"
        path.write_text(nested_at(MAX_NESTING + 1) + "\n")
        assert main(command + ["--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "nested" in captured.err

    def test_far_too_deep_exits_2(self, capsys):
        assert main(["decide", "selector", "--inline", "!" * 3000 + "x1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


def sparse_config(formulas, tmp_path, **overrides):
    settings = dict(
        algorithm="sparse",
        formulas=formulas,
        oracle_style="scatter",
        mode="capped_continue",
        trace_path=str(tmp_path / "t.jsonl"),
        summary_path=str(tmp_path / "s.csv"),
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def watch_solver(monkeypatch, algorithm, fail_at=0, error=None):
    """Record the formulas ``algorithm``'s solver is called on, and make it
    raise ``error`` on call number ``fail_at`` (from 1; 0 for never)."""
    entry = cli.ALGORITHMS[algorithm]
    seen = []

    def solve(config, oracle, formula):
        seen.append(formula)
        if len(seen) == fail_at:
            raise error
        return entry.solve(config, oracle, formula)

    monkeypatch.setitem(cli.ALGORITHMS, algorithm, entry._replace(solve=solve))
    return seen


class TestOutputFiles:
    FORMULAS = [generate_random(4, 10, seed) for seed in range(6)]

    @pytest.mark.parametrize("error", [RuntimeError("solver broke"), KeyboardInterrupt()])
    @pytest.mark.parametrize("k", [1, 4, 6])
    def test_failed_run_leaves_existing_files_and_no_temporary(self, tmp_path, monkeypatch, error, k):
        trace, summary = tmp_path / "t.jsonl", tmp_path / "s.csv"
        trace.write_bytes(b'{"old": "trace"}\n')
        summary.write_bytes(b"old,summary\n")
        watch_solver(monkeypatch, "sparse", k, error)
        with pytest.raises(type(error)):
            run(sparse_config(self.FORMULAS, tmp_path))
        assert trace.read_bytes() == b'{"old": "trace"}\n'
        assert summary.read_bytes() == b"old,summary\n"
        assert sorted(os.listdir(tmp_path)) == ["s.csv", "t.jsonl"]

    def test_failed_run_creates_no_file(self, tmp_path, monkeypatch):
        watch_solver(monkeypatch, "sparse", 3, RuntimeError("solver broke"))
        with pytest.raises(RuntimeError):
            run(sparse_config(self.FORMULAS, tmp_path))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_is_that_of_a_plain_open(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "plain", "w"):
                pass
            run(sparse_config(self.FORMULAS, tmp_path))
        finally:
            os.umask(previous)
        plain = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
        assert plain == 0o666 & ~umask
        for name in ("t.jsonl", "s.csv"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == plain

    def test_shared_path_holds_the_summary(self, tmp_path):
        # As when the files were written one after the other: the summary,
        # written last, is what the path holds.
        shared = str(tmp_path / "both")
        run(sparse_config(self.FORMULAS, tmp_path, trace_path=shared, summary_path=shared))
        run(sparse_config(self.FORMULAS, tmp_path, trace_path=None))
        assert (tmp_path / "both").read_bytes() == (tmp_path / "s.csv").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["both", "s.csv"]

    def test_symbolic_link_is_written_through(self, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "trace.jsonl"
        target.write_text("old\n")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        run(sparse_config(self.FORMULAS, tmp_path, trace_path=str(link)))
        run(sparse_config(self.FORMULAS, tmp_path))
        assert link.is_symlink()
        assert target.read_bytes() == (tmp_path / "t.jsonl").read_bytes()
        assert os.listdir(tmp_path / "real") == ["trace.jsonl"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_written_in_place(self, tmp_path):
        # A path that is no regular file, such as /dev/stdout, is written
        # as it is, not replaced by a file.
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        run(sparse_config(self.FORMULAS, tmp_path, trace_path=str(pipe)))
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        run(sparse_config(self.FORMULAS, tmp_path))
        assert received == [(tmp_path / "t.jsonl").read_bytes()]

    def test_directory_path_fails_before_solving(self, tmp_path, monkeypatch):
        seen = watch_solver(monkeypatch, "sparse")
        with pytest.raises(IsADirectoryError):
            run(sparse_config(self.FORMULAS, tmp_path, summary_path=str(tmp_path)))
        assert seen == []
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag", ["--trace", "--summary"])
    def test_missing_directory_fails_before_solving(self, tmp_path, monkeypatch, capsys, flag):
        seen = watch_solver(monkeypatch, "tally")
        target = str(tmp_path / "missing" / "out")
        argv = ["decide", "tally", "--random", "vars=4", "count=3", flag, target]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert seen == []
        assert os.listdir(tmp_path) == []


class CountingEnviron(dict):
    """A copy of the environment that counts reads of one variable."""

    def __init__(self, environ, key):
        super().__init__(environ)
        self.key = key
        self.reads = 0

    def get(self, key, default=None):
        self.reads += key == self.key
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += key == self.key
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += key == self.key
        return super().__contains__(key)


class TestVerificationLimit:
    @pytest.mark.parametrize("algorithm, style", [("selector", "honest"), ("enum_count", "woeginger")])
    @pytest.mark.parametrize("count", [1, 25])
    def test_limit_read_once_per_run(self, monkeypatch, algorithm, style, count):
        environ = CountingEnviron(os.environ, BRUTE_FORCE_LIMIT_ENV)
        monkeypatch.setattr(os, "environ", environ)
        formulas = [generate_random(5, 12, seed) for seed in range(count)]
        records = run(ExperimentConfig(algorithm=algorithm, formulas=formulas, oracle_style=style))
        assert all(r.agree for r in records)
        assert environ.reads == 1

    def test_limit_reaches_the_reference(self, monkeypatch):
        # The limit run() read is the one verification uses: a reference
        # that read the environment itself would see the later value.
        monkeypatch.setenv(BRUTE_FORCE_LIMIT_ENV, "5")
        limits = []
        entry = cli.ALGORITHMS["selector"]

        def reference(formula, limit):
            limits.append(limit)
            os.environ[BRUTE_FORCE_LIMIT_ENV] = "1"
            return entry.reference(formula, limit)

        monkeypatch.setitem(cli.ALGORITHMS, "selector", entry._replace(reference=reference))
        formulas = [generate_random(4, 10, seed) for seed in range(3)]
        records = run(ExperimentConfig(algorithm="selector", formulas=formulas, oracle_style="honest"))
        assert limits == [5, 5, 5]
        assert all(r.agree for r in records)


class TestMemory:
    def peak_and_trace_bytes(self, tmp_path, count):
        formulas = generate_corpus(count, 6, seed=1)
        for formula in formulas:  # fill the inputs' own text caches first
            serialize(formula)
        config = sparse_config(formulas, tmp_path, verify=False, summary_path=None)
        tracemalloc.start()
        try:
            run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, os.path.getsize(config.trace_path)

    def test_peak_grows_less_than_the_trace(self, tmp_path):
        # Holding every trace row until the end made the peak grow about
        # 2.6 times as fast as the trace; streamed, it grows about half as fast.
        small_peak, small_trace = self.peak_and_trace_bytes(tmp_path, 500)
        large_peak, large_trace = self.peak_and_trace_bytes(tmp_path, 1_000)
        assert large_trace > small_trace
        assert large_peak - small_peak < large_trace - small_trace


class TestDecidersAtSixtyFourVariables:
    @pytest.mark.parametrize("decider", ["tally", "sparse"])
    def test_finish_without_too_large(self, decider, capsys):
        argv = ["decide", decider, "--random", "vars=64", "count=3", "seed=1", "--no-verify"]
        assert main(argv) == 0
        assert capsys.readouterr().out.count(" -> ") == 3


class TestNodeBudgetBound:
    def test_the_generator_runs_at_the_bound(self):
        from selfred.generate import MAX_NODE_BUDGET

        # Every variable takes its one leaf, so the formula has exactly
        # MAX_NODE_BUDGET leaves.
        formula = generate_random(MAX_NODE_BUDGET, MAX_NODE_BUDGET, 0)
        assert serialize(formula).count("x") == MAX_NODE_BUDGET
        with pytest.raises(InvalidParams, match=f"<= {MAX_NODE_BUDGET}"):
            generate_random(1, MAX_NODE_BUDGET + 1, 0)

    def test_gen_at_the_bound(self, tmp_path):
        from selfred.generate import MAX_NODE_BUDGET

        out = tmp_path / "g.txt"
        argv = ["gen", "--vars", "1", "--budget", str(MAX_NODE_BUDGET), "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text().count("\n") == 1

    def test_one_above_the_bound_exits_2_on_both_paths(self, capsys):
        from selfred.generate import MAX_NODE_BUDGET

        above = MAX_NODE_BUDGET + 1
        for argv in (
            ["gen", "--vars", "3", "--budget", str(above)],
            ["decide", "tally", "--random", "vars=3", f"budget={above}"],
            ["count", "enum", "--random", "vars=3", f"budget={above}", "--no-verify"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert f"node_budget must be <= {MAX_NODE_BUDGET}" in captured.err
            assert captured.out == ""
