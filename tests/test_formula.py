import copy
import dataclasses
import pickle
import random
import re
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfred.counting import combine, count_via_enumerator
from selfred.errors import (
    FormulaSyntaxError,
    IncompleteAssignment,
    InvalidParams,
    MalformedInput,
    NoVariables,
    SelfReducibilityError,
    TooLarge,
    UnknownVariable,
)
from selfred import formula as formula_module
from selfred.formula import (
    MAX_INDEX_DIGITS,
    MAX_NESTING,
    MODEL_STORE_SIZE,
    And,
    Const,
    ModelStore,
    Not,
    Or,
    Var,
    brute_force_count,
    brute_force_sat,
    evaluate,
    first_model,
    parse,
    parse_dimacs,
    place_variables,
    self_reduce,
    serialize,
    simplify,
    split,
    variable_mask,
    variables,
)
from selfred.generate import generate_random
from selfred.oracles import (
    exact_model_count,
    honest_selector,
    honest_two_enumerator,
    simulated_sparse_coreduction,
    simulated_tally_reduction,
)
from selfred.pruning import decide_via_sparse, decide_via_tally
from selfred.selector import decide_via_selector

from references import (
    count,
    evaluated,
    is_flat,
    lowest_model,
    reference_simplify,
    reference_variables,
    renamed,
    substituted,
    subtrees,
)


def formulas(max_vars: int = 4, max_leaves: int = 8) -> st.SearchStrategy:
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
        max_leaves=max_leaves,
    )


class TestParse:
    def test_example_formulas(self):
        assert parse("x1 & !x1") == And(Var(1), Not(Var(1)))
        assert parse("T") == Const(True)
        assert parse("(x1 & x2 & !x3) | (x4 & !x4)") == Or(
            And(Var(1), Var(2), Not(Var(3))), And(Var(4), Not(Var(4)))
        )

    def test_whitespace_insensitive(self):
        assert parse("x1&x2 |!x3") == parse("x1 & x2 | !x3")

    def test_precedence(self):
        assert parse("x1 | x2 & x3") == Or(Var(1), And(Var(2), Var(3)))
        assert parse("(x1 | x2) & x3") == And(Or(Var(1), Var(2)), Var(3))

    def test_flattens_same_operator_chains(self):
        assert parse("(x1 & x2) & x3") == parse("x1 & x2 & x3")
        assert parse("x1 | (x2 | x3)") == parse("x1 | x2 | x3")

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("", 0),
            ("x0", 1),
            ("x1 &", 4),
            ("(x1", 3),
            ("x1 !x2", 3),
            ("y1", 0),
        ],
    )
    def test_syntax_errors_carry_offset(self, text, offset):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text)
        assert exc.value.offset == offset

    def test_multi_digit_indices(self):
        assert parse("x10 | x2") == Or(Var(10), Var(2))


class TestSerialize:
    def test_minimal_parentheses(self):
        assert serialize(parse("(x1 & x2 & !x3) | (x4 & !x4)")) == "x1 & x2 & !x3 | x4 & !x4"
        assert serialize(parse("!(x1 | x2) & x3")) == "!(x1 | x2) & x3"
        assert serialize(Not(Not(Var(1)))) == "!!x1"

    def test_roundtrip_is_stable(self):
        for text in ["((x1))", "x1&(x2|x3)", "!(T & F) | x2", "(x1|x2)|(x3&x4)"]:
            once = serialize(parse(text))
            assert serialize(parse(once)) == once

    @settings(max_examples=200, deadline=None)
    @given(formulas())
    def test_roundtrip_property(self, formula):
        text = serialize(formula)
        assert serialize(parse(text)) == text


class TestSimplify:
    def test_paper_constant_chain(self):
        assert simplify(And(Const(True), Const(True), Const(False))) == Const(False)

    def test_negated_constant(self):
        assert simplify(Not(Const(False))) == Const(True)

    def test_absorbed_disjunct(self):
        assert simplify(parse("(T | x1) & x2")) == Var(2)

    def test_no_embedded_constants_remain(self):
        def has_embedded_const(formula, top=True):
            match formula:
                case Const():
                    return not top
                case Var():
                    return False
                case Not(child):
                    return has_embedded_const(child, False)
                case And(children) | Or(children):
                    return any(has_embedded_const(c, False) for c in children)

        for text in ["x1 & T", "x1 | F | x2", "!(T & x1) | (F & x2)", "T & F"]:
            assert not has_embedded_const(simplify(parse(text)))

    @settings(max_examples=200, deadline=None)
    @given(formulas())
    def test_idempotent(self, formula):
        once = simplify(formula)
        assert simplify(once) == once


class TestSplitExamples:
    def test_identity_under_true_conjunct(self):
        assert split(parse("x1 & x2"), 1)[0] == Var(2)

    def test_annihilator(self):
        assert split(parse("x1 & x2"), 1)[1] == Const(False)

    def test_derived_example(self):
        result = split(parse("(x1 & x2 & !x3) | (x4 & !x4)"), 1)[0]
        assert serialize(result) == "x2 & !x3 | x4 & !x4"

    @pytest.mark.parametrize("index", [0, -3, 10**15])
    def test_index_outside_the_mask_is_unknown(self, index):
        with pytest.raises(UnknownVariable):
            split(parse("x1 & x2"), index)


class TestSelfReduce:
    def test_single_variable(self):
        assert self_reduce(Var(1)) == (Const(True), Const(False), 1)

    def test_contradiction(self):
        assert self_reduce(parse("x1 & !x1")) == (Const(False), Const(False), 1)

    def test_true_shortcircuit(self):
        assert self_reduce(parse("x1 | x2")) == (Const(True), Var(2), 1)

    def test_constant_rejected(self):
        with pytest.raises(NoVariables):
            self_reduce(Const(True))


class TestEvaluate:
    def test_paper_example_two(self):
        formula = parse("(x1 & x2 & !x3) | (x4 & !x4)")
        assert evaluate(formula, {1: True, 2: True, 3: False, 4: True}) is True

    def test_paper_example_one(self):
        assert evaluate(parse("x1 & !x1"), {1: True}) is False

    def test_constant_under_empty_assignment(self):
        assert evaluate(Const(True), {}) is True

    def test_incomplete_assignment(self):
        with pytest.raises(IncompleteAssignment):
            evaluate(parse("x1 & x2"), {1: True})

    def test_extra_variables_tolerated(self):
        assert evaluate(Var(1), {1: True, 9: False}) is True


class TestBruteForce:
    def test_paper_counts(self):
        assert brute_force_count(parse("x1 | x2")) == 3
        assert brute_force_count(parse("x1 & !x1")) == 0
        assert brute_force_count(Const(True)) == 1
        assert brute_force_count(Const(False)) == 0

    def test_limit(self):
        wide = And(*(Var(i) for i in range(1, 6)))
        with pytest.raises(TooLarge):
            brute_force_count(wide, limit=4)
        assert brute_force_count(wide, limit=5) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SELFRED_BRUTE_LIMIT", "2")
        with pytest.raises(TooLarge):
            brute_force_sat(parse("x1 & x2 & x3"))


def with_constant_children(formula, rng):
    """The formula with a constant child added to some And/Or nodes.  Every
    variable still occurs, so k is unchanged."""
    match formula:
        case Not(child):
            return Not(with_constant_children(child, rng))
        case And(children) | Or(children):
            kept = [with_constant_children(c, rng) for c in children]
            if rng.random() < 0.2:
                kept.insert(rng.randrange(len(kept) + 1), Const(rng.random() < 0.5))
            return type(formula)(*kept)
    return formula


def count_blocks(monkeypatch) -> list[int]:
    """Patch _tables to count the block tables it yields."""
    original = formula_module._tables
    blocks = [0]

    def counted(formula, limit):
        masks, tables = original(formula, limit)

        def each():
            for table in tables:
                blocks[0] += 1
                yield table

        return masks, each()

    monkeypatch.setattr(formula_module, "_tables", counted)
    return blocks


class TestBlockedTruthTable:
    @pytest.mark.parametrize("k", [15, 16, 17, 18, 20])
    def test_matches_dense_table(self, k):
        rng = random.Random(k)
        for seed in range(3):
            formula = with_constant_children(generate_random(k, 2 * k + 2, 500 * k + seed), rng)
            assert variable_mask(formula).bit_count() == k
            expected = count(formula)
            assert brute_force_count(formula) == expected
            assert brute_force_sat(formula) == (expected > 0)

    def test_only_model_in_last_block(self):
        formula = And(*(Var(i) for i in range(1, 21)))
        assert brute_force_sat(formula)
        assert brute_force_count(formula) == 1

    def test_only_model_in_first_block(self):
        formula = And(*(Not(Var(i)) for i in range(1, 21)))
        assert brute_force_sat(formula)
        assert brute_force_count(formula) == 1

    def test_sat_stops_at_first_block_with_a_model(self, monkeypatch):
        blocks = count_blocks(monkeypatch)
        assert brute_force_sat(And(*(Not(Var(i)) for i in range(1, 21))))
        assert blocks[0] == 1

    def test_unsatisfiable_evaluates_every_block(self, monkeypatch):
        blocks = count_blocks(monkeypatch)
        assert not brute_force_sat(And(Var(1), Not(Var(1)), *(Var(i) for i in range(2, 21))))
        assert blocks[0] == 1 << (20 - 16)

    def test_too_large_before_any_block(self, monkeypatch):
        blocks = count_blocks(monkeypatch)
        formula = Or(*(Var(i) for i in range(1, 21)))
        with pytest.raises(TooLarge):
            brute_force_sat(formula, limit=19)
        with pytest.raises(TooLarge):
            brute_force_count(formula, limit=19)
        assert blocks[0] == 0


class TestFirstModel:
    @pytest.mark.parametrize("k", [16, 17, 18, 20])
    def test_models_across_blocks(self, k):
        rng = random.Random(k)
        for seed in range(3):
            formula = with_constant_children(generate_random(k, 2 * k + 2, 700 * k + seed), rng)
            model = first_model(formula)
            assert (model is None) == (brute_force_count(formula) == 0)
            if model is not None:
                assert set(model) == variables(formula)
                assert evaluated(formula, model)

    def test_only_model_in_last_block(self, monkeypatch):
        blocks = count_blocks(monkeypatch)
        assert first_model(And(*(Var(i) for i in range(1, 21)))) == {i: True for i in range(1, 21)}
        assert blocks[0] == 1 << (20 - 16)

    def test_stops_at_first_block_with_a_model(self, monkeypatch):
        blocks = count_blocks(monkeypatch)
        # x17 is the lowest variable that is constant within a block; x1..x16
        # are all True at assignment 2^16 - 1, in block 0 only when x17 is False.
        formula = And(*(Var(i) for i in range(1, 17)), Or(Var(17), Var(18)), Not(Var(19)))
        assert first_model(formula) == {**{i: True for i in range(1, 17)}, 17: True, 18: False, 19: False}
        assert blocks[0] == 2

    def test_constants_and_limits(self, monkeypatch):
        assert first_model(Const(True)) == {}
        assert first_model(Const(False)) is None
        assert first_model(parse("x1 & !x1")) is None
        blocks = count_blocks(monkeypatch)
        with pytest.raises(TooLarge):
            first_model(Or(*(Var(i) for i in range(1, 21))), limit=19)
        assert blocks[0] == 0
        monkeypatch.setenv("SELFRED_BRUTE_LIMIT", "2")
        with pytest.raises(TooLarge):
            first_model(parse("x1 & x2 & x3"))


# Models as a store keeps them, values of some variables among x1..x6 or
# x1..x8, with queries over the same variables: a few models, or many.
STORED_AND_ASKED = st.one_of(
    st.tuples(
        st.lists(st.dictionaries(st.integers(1, 6), st.booleans()), max_size=6),
        st.lists(formulas(max_vars=6), min_size=1, max_size=5),
    ),
    st.tuples(
        st.lists(st.dictionaries(st.integers(1, 8), st.booleans()), max_size=40),
        st.lists(formulas(max_vars=8, max_leaves=14), min_size=1, max_size=4),
    ),
)


class TestModelStore:
    @settings(max_examples=300, deadline=None)
    @given(STORED_AND_ASKED)
    def test_holds_exactly_when_a_kept_model_satisfies(self, stored_and_asked):
        # A variable that a model leaves out reads False.
        models, queries = stored_and_asked
        store = ModelStore()
        for model in models:
            store.add(model)
        assert store.size == len(models)
        for query in queries:
            completed = [{i: model.get(i, False) for i in reference_variables(query)} for model in models]
            assert store.holds(query) == any(evaluated(query, assignment) for assignment in completed)

    def test_empty_store_holds_nothing(self):
        store = ModelStore()
        for text in ("T", "!x1", "x1 | !x1"):
            assert not store.holds(parse(text))

    def test_variables_a_model_leaves_out_read_false(self):
        store = ModelStore()
        store.add({1: True})
        assert store.holds(parse("x1 & !x2"))
        assert not store.holds(parse("x1 & x2"))
        assert not store.holds(parse("!x1"))  # its one model sets x1
        assert store[2] == 0 and 2 not in store  # reading a column adds none

    def test_emptied_when_full(self):
        store = ModelStore()
        first = {1: True, 2: True}
        store.add(first)
        for number in range(1, MODEL_STORE_SIZE):
            store.add({1: False, 2 + number: True})
        assert store.size == MODEL_STORE_SIZE
        assert store.holds(parse("x1 & x2"))  # only the first model sets x1
        assert store.holds(parse(f"x{MODEL_STORE_SIZE + 1}"))
        store.add({3: True})
        assert store.size == 1
        assert not store.holds(parse("x1 | x2"))
        assert not store.holds(parse(f"x{MODEL_STORE_SIZE + 1}"))
        assert store.holds(parse("x3 & !x1"))

    def test_models_are_read_not_kept(self):
        store = ModelStore()
        model = {1: True}
        store.add(model)
        model[1] = False
        assert store.holds(Var(1))
        assert model == {1: False}


class TestRename:
    def test_place_checks_start_before_returning_a_formula_in_place(self):
        in_place = parse("x1 & x2")
        assert place_variables(in_place, 1) is in_place
        true = Const(True)
        assert place_variables(true, 1) is true
        for formula in (in_place, true, Const(False)):
            for start in (0, -1, -(10**15)):
                with pytest.raises(InvalidParams, match="positive"):
                    place_variables(formula, start)


def reference_parse_dimacs(text):
    """The three-pass DIMACS reader that parse_dimacs replaced: it gathers
    every (literal, byte offset) pair first, then splits them into clauses,
    then builds the nodes.  parse_dimacs must agree with it on every text.
    A % line ends the clauses, and literals and counts are ASCII digits."""
    var_count = clause_count = None
    literal_tokens = []
    end = problem_at = 0
    for line_no, line in enumerate(text.splitlines(keepends=True), start=1):
        at, end = end, end + len(line.encode())
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):  # the SATLIB trailer: no clause follows
            end = at
            break
        if stripped.startswith("p"):
            if var_count is not None:
                raise FormulaSyntaxError("duplicate problem line", at)
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormulaSyntaxError(f"bad problem line on line {line_no}", at)
            if not all(re.fullmatch("[0-9]+", count) for count in parts[2:]):
                raise FormulaSyntaxError(f"negative or non-integer count on line {line_no}", at)
            if len(parts[2]) > MAX_INDEX_DIGITS:
                raise FormulaSyntaxError(f"variable count above {MAX_INDEX_DIGITS} digits", at)
            if len(parts[3]) > 18:
                raise FormulaSyntaxError("clause count above 18 digits", at)
            var_count, clause_count, problem_at = int(parts[2]), int(parts[3]), at
            continue
        if var_count is None:
            raise FormulaSyntaxError(f"clause before problem line on line {line_no}", at)
        for token in re.finditer(r"\S+", line):
            token_at = at + len(line[: token.start()].encode())
            try:
                if not re.fullmatch("-?[0-9]+", token.group()):
                    raise ValueError
                literal_tokens.append((int(token.group()), token_at))
            except ValueError:
                raise FormulaSyntaxError(f"bad literal on line {line_no}", token_at) from None
    if var_count is None:
        raise FormulaSyntaxError("missing 'p cnf' problem line", end)
    clauses, current = [], []
    for literal, token_at in literal_tokens:
        if literal == 0:
            clauses.append(current)
            current = []
            continue
        if abs(literal) > var_count:
            raise FormulaSyntaxError(f"literal {literal} exceeds declared variable count", token_at)
        current.append(literal)
    if current:
        raise FormulaSyntaxError("final clause not terminated by 0", end)
    if len(clauses) != clause_count:
        raise FormulaSyntaxError(
            f"declared {clause_count} clauses but found {len(clauses)}", problem_at
        )
    nodes = []
    for clause in clauses:
        literals = [Var(l) if l > 0 else Not(Var(-l)) for l in clause]
        nodes.append(Const(False) if not literals else literals[0] if len(literals) == 1 else Or(*literals))
    return Const(True) if not nodes else nodes[0] if len(nodes) == 1 else And(*nodes)


# Separators between DIMACS tokens, weighted toward a plain space so that
# many clauses share a line; the last three end a line.
_GAPS = [" "] * 8 + ["\t", "  ", "\u00a0", "\u3000", "\n", "\r\n", "\r"]
_LINE_ENDS = ["\n", "\r\n", "\r"]
_COMMENTS = ["c comment", "c h\u00e9llo w\u00f6rld \u2603", "c", "  c indented", ""]
# Tokens a clause may hold besides its literals: spellings int() takes and
# DIMACS does not, a legal one ("-0"), then tokens int() refuses.
_ODD_TOKENS = ["\u0661", "-\u0661", "1_0", "+2", "-0", "x", "%", "0x1", "1e1"]


@st.composite
def dimacs_texts(draw):
    """DIMACS texts, valid and broken: foreign separators and digits, comment
    and % lines, literals above the count, a dropped final 0, a wrong clause
    count, a misplaced, doubled or malformed problem line.  Each flaw is
    drawn with odds of one in six, so about two texts in five parse."""
    rng = draw(st.randoms(use_true_random=True))
    rare = lambda: rng.random() < 1 / 6
    n = rng.randint(1, 4)
    clauses = [
        [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 4))]
        for _ in range(rng.randint(0, 8))
    ]
    tokens = [str(l) for clause in clauses for l in [*clause, 0]]
    if tokens and rare():
        tokens.pop()  # the final 0
    if rare():
        odd = rng.choice(_ODD_TOKENS + [str(n + 1), str(-n - 2)])
        tokens.insert(rng.randint(0, len(tokens)), odd)
    declared = len(clauses) + (rng.choice((1, -1)) if rare() else 0)
    gap = rng.choice([" ", "  ", "\u00a0", "\u3000", "\t"])
    problem = f"p{gap}cnf{gap}{n}{gap}{declared}"
    if rare():
        problem = rng.choice([f"p cnf {n}", "p dnf 1 1", f"p cnf \u0661 {declared}"])
    lines = [rng.choice(_COMMENTS) for _ in range(rng.randint(0, 2))]
    body = ""
    for token in tokens:
        sep = rng.choice(_GAPS) if body else ""
        if sep in _LINE_ENDS and rare():
            sep += rng.choice(_COMMENTS) + rng.choice(_LINE_ENDS)
        body += sep + token
    placement = rng.choice(["top"] * 15 + ["missing", "twice", "after"])
    if placement != "missing":
        lines.append(problem)
    lines.append(body)
    if placement == "twice":
        lines.append(problem)
    elif placement == "after":
        lines.insert(0, "1 0")
    if rare():
        lines += ["%", "0"]  # the trailer of the SATLIB benchmark files
    ends = [rng.choice(_LINE_ENDS) for _ in lines]
    ends[-1] = rng.choice(_LINE_ENDS + [""])
    return "".join(line + end for line, end in zip(lines, ends))


def dimacs_outcome(reader, text):
    try:
        formula = reader(text)
    except FormulaSyntaxError as error:
        return "error", error.message, error.offset
    return "formula", formula, serialize(formula)


class TestDimacs:
    def test_basic(self):
        formula = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n3 0\n")
        assert serialize(formula) == "(x1 | !x2) & x3"

    def test_multiline_clause(self):
        formula = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert serialize(formula) == "x1 | x2 | x3"

    def test_empty_formula_is_true(self):
        assert parse_dimacs("p cnf 0 0\n") == Const(True)

    def test_empty_clause_is_false(self):
        formula = parse_dimacs("p cnf 1 2\n1 0\n0\n")
        assert brute_force_count(formula) == 0

    @settings(max_examples=300, deadline=None)
    @given(dimacs_texts())
    def test_agrees_with_the_three_pass_reader(self, text):
        assert dimacs_outcome(parse_dimacs, text) == dimacs_outcome(reference_parse_dimacs, text)

    def test_one_long_line_parses_in_linear_time(self):
        # 32 000 three-literal clauses on one line; a reader that re-encodes
        # the line's prefix for each token takes seconds here.
        rng = random.Random(0)
        clauses = [
            " ".join(str(rng.choice((1, -1)) * rng.randint(1, 20)) for _ in range(3)) + " 0"
            for _ in range(32_000)
        ]
        header = f"p cnf 20 {len(clauses)}\r\n"
        one_line = header + " ".join(clauses) + "\r\n"
        start = time.perf_counter()
        formula = parse_dimacs(one_line)
        assert time.perf_counter() - start < 2.0
        assert formula == parse_dimacs(header + "\n".join(clauses) + "\n")
        assert len(formula.children) == 32_000

    @pytest.mark.parametrize(
        "text",
        [
            "1 2 0\n",
            "p cnf 1 1\n2 0\n",
            "p cnf 1 1\n1\n",
            "p cnf 1 2\n1 0\n",
            "p nfc 1 1\n1 0\n",
            "p cnf a b\n",
            "p cnf -1 0\n",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse_dimacs(text)

    def test_satlib_trailer_ends_the_clauses(self):
        # SATLIB's benchmark files end with a "%" line and a "0" line.
        assert parse_dimacs("p cnf 1 1\n1 0\n%\n0\n") == Var(1)
        body = "c uf3-01.cnf\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n"
        assert parse_dimacs(body + "%\n0\n\n") == parse_dimacs(body)
        assert parse_dimacs(body.replace("\n", "\r\n") + "  %\r\n0\r\n") == parse_dimacs(body)
        # Nothing after the % line is read, not even a broken clause.
        assert parse_dimacs(body + "% end\n1 x 0\np cnf 9 9\n") == parse_dimacs(body)

    def test_clause_open_at_the_trailer_is_unterminated(self):
        with pytest.raises(FormulaSyntaxError, match="not terminated") as exc:
            parse_dimacs("p cnf 2 1\n1 2\n%\n0\n")
        assert exc.value.offset == 14  # the first byte of the % line

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("p cnf 10 1\n1_0 +2 \u0661 0\n", 11),
            ("p cnf 10 1\n1 2 \u0661 0\n", 15),
            ("p cnf 2 1\n-\u0661 0\n", 10),
            ("p cnf 2 1\n1\u00a0+2 0\n", 13),  # after a 2-byte separator
        ],
    )
    def test_literals_are_ascii_digits(self, text, offset):
        with pytest.raises(FormulaSyntaxError, match="bad literal on line 2") as exc:
            parse_dimacs(text)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("problem", ["p cnf \u0663 1", "p cnf 1 \u0661", "p cnf 1_0 1", "p cnf +1 1"])
    def test_problem_counts_are_ascii_digits(self, problem):
        with pytest.raises(FormulaSyntaxError, match="negative or non-integer count on line 2") as exc:
            parse_dimacs(f"c x\n{problem}\n1 0\n")
        assert exc.value.offset == 4

    def test_clause_count_past_int_digit_limit(self):
        # int() refuses more than 4 300 digits with a plain ValueError.
        text = "c x\np cnf 1 " + "1" * 4301 + "\n1 0\n"
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_dimacs(text)
        assert exc.value.offset == 4  # the problem line's first byte

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("c x\np cnf 2\n", 4),  # bad problem line: its first byte
            ("p cnf 2 1\n1 x 0\n", 12),  # bad literal: the token
            ("c \u00e9\n1 0\np cnf 1 1\n", 5),  # clause before the problem line; 2-byte char
            ("p cnf 2 1\n1 -3 0\n", 12),  # literal above the declared count: the token
            ("p cnf 1 1\r\np cnf 1 1\n", 11),  # duplicate problem line
            ("p cnf 2 1\n  1\t 2\n", 17),  # unterminated clause: end of input
        ],
    )
    def test_errors_carry_byte_offset(self, text, offset):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_dimacs(text)
        assert exc.value.offset == offset


class TestNodeInvariants:
    def test_arity(self):
        with pytest.raises(ValueError):
            And(Var(1))
        with pytest.raises(ValueError):
            Or(Var(1))

    def test_positive_indices(self):
        with pytest.raises(ValueError):
            Var(0)

    def test_constructor_flattening(self):
        assert And(And(Var(1), Var(2)), Var(3)) == And(Var(1), Var(2), Var(3))
        assert Or(Var(1), Or(Var(2), Var(3))) == Or(Var(1), Var(2), Var(3))


class TestIndexLength:
    def test_longest_index_parses(self):
        index = int("9" * MAX_INDEX_DIGITS)
        assert variables(parse(f"x1 | !x{index}")) == {1, index}
        assert parse(serialize(Var(index))) == Var(index)  # Var's highest index
        text = f"p cnf {index} 1\n{index} -1 0\n"
        assert variables(parse_dimacs(text)) == {1, index}

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("x1 | x" + "1" * (MAX_INDEX_DIGITS + 1), 6 + MAX_INDEX_DIGITS),
            ("x" + "9" * 5000, 1 + MAX_INDEX_DIGITS),  # would pass int()'s digit limit
            ("x1\u00b2", 2),  # a superscript digit is not a digit of the grammar
        ],
    )
    def test_longer_or_foreign_digits_are_syntax_errors(self, text, offset):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text)
        assert exc.value.offset == offset

    def test_dimacs_variable_count_too_long(self):
        with pytest.raises(FormulaSyntaxError, match="digits") as exc:
            parse_dimacs("c big\np cnf 1" + "0" * MAX_INDEX_DIGITS + " 1\n1 0\n")
        assert exc.value.offset == 6


class TestNesting:
    @pytest.mark.parametrize("opener,closer", [("!", ""), ("(", ")"), ("!(", ")")])
    def test_limit_is_inclusive(self, opener, closer):
        levels = MAX_NESTING // len(opener)
        formula = parse(opener * levels + "x1" + closer * levels)
        assert variables(formula) == {1}

    @pytest.mark.parametrize("opener,closer", [("!", ""), ("(", ")")])
    def test_one_level_more_is_a_syntax_error(self, opener, closer):
        text = "x2 & " + opener * (MAX_NESTING + 1) + "x1" + closer * (MAX_NESTING + 1)
        with pytest.raises(FormulaSyntaxError, match="nested") as exc:
            parse(text)
        assert exc.value.offset == len("x2 & ") + MAX_NESTING

    def test_far_too_deep_is_a_syntax_error(self):
        for text in ("!" * 3000 + "x1", "(" * 3000 + "x1" + ")" * 3000):
            with pytest.raises(FormulaSyntaxError):
                parse(text)

    def test_siblings_do_not_add_up(self):
        level = "!" * MAX_NESTING + "x1"
        assert variables(parse(" & ".join([level] * 3))) == {1}

    @pytest.mark.xfail(raises=RecursionError, strict=True, reason="walkers recurse per level")
    @pytest.mark.parametrize("walk", [serialize, variable_mask, exact_model_count])
    def test_trees_built_deeper_in_code_raise_a_named_error(self, walk):
        formula = Var(1)
        for _ in range(2000):
            formula = Not(formula)
        with pytest.raises(SelfReducibilityError):
            walk(formula)


# The uncached serializer, as the module had it before nodes carried caches;
# the cached one must agree with it.
def reference_serialize(formula, context=0):
    # Precedence levels: Or 0 < And 1 < unary 2.
    match formula:
        case Const(value):
            return "T" if value else "F"
        case Var(index):
            return f"x{index}"
        case Not(child):
            return "!" + reference_serialize(child, 2)
        case And(children) | Or(children):
            joiner, own = (" & ", 1) if isinstance(formula, And) else (" | ", 0)
            text = joiner.join(reference_serialize(c, 1) for c in children)
            return f"({text})" if context > own else text


class TestCachedKernel:
    @settings(max_examples=300, deadline=None)
    @given(formulas(max_vars=6, max_leaves=12))
    def test_matches_uncached_reference(self, formula):
        for _ in range(2):  # the second round reads the caches
            assert serialize(formula) == reference_serialize(formula)
            assert variables(formula) == reference_variables(formula)
            assert variable_mask(formula) == sum(1 << i for i in reference_variables(formula))
            assert simplify(formula) == reference_simplify(formula)
            for node in subtrees(formula):
                assert serialize(node) == reference_serialize(node)

    @settings(max_examples=200, deadline=None)
    @given(formulas(max_vars=6, max_leaves=12), st.booleans())
    def test_split_keeps_children_without_the_variable(self, formula, value):
        formula = simplify(formula)
        if not isinstance(formula, (And, Or)):
            return
        for index in variables(formula):
            result = split(formula, index)[0 if value else 1]
            if type(result) is not type(formula):
                continue  # collapsed to a constant or a single child
            for child in formula.children:
                if index not in variables(child):
                    assert any(child is kept for kept in result.children)

    def test_high_indices_beyond_the_cached_mask_width(self):
        formula = parse("(x5000 | !x3) & (x7000 | x5000) & !x2")
        for _ in range(2):
            assert variables(formula) == {2, 3, 5000, 7000}
            assert formula._mask is None  # too wide to keep
            assert variable_mask(formula) == (1 << 2) | (1 << 3) | (1 << 5000) | (1 << 7000)
        for index in (3, 5000, 7000):
            assert split(formula, index)[1] == substituted(formula, index, False)
        assert brute_force_count(formula) == count(formula)

    def test_simplify_returns_a_simplified_formula_itself(self):
        once = simplify(parse("x1 & (x2 | !x3) & T"))
        assert simplify(once) is once
        plain = parse("x1 & (x2 | !x3)")
        assert simplify(plain) is plain

    def test_simplify_leaves_its_input_unchanged(self):
        formula = parse("x1 & T & (x2 | F)")
        assert simplify(formula) == parse("x1 & x2")
        assert formula == And(Var(1), Const(True), Or(Var(2), Const(False)))
        assert serialize(formula) == "x1 & T & (x2 | F)"

    def test_equality_hash_and_repr_ignore_caches(self):
        text = "!(x1 & x2) | x3 & (x4 | !x1)"
        warm, cold = parse(text), parse(text)
        serialize(warm), variables(warm), simplify(warm), split(warm, 1)
        assert warm == cold and cold == warm
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert {warm: 1}[cold] == 1
        for node in (Const(True), Var(1), Not(Var(1)), And(Var(1), Var(2)), Or(Var(1), Var(2))):
            assert [f.name for f in dataclasses.fields(node)] == list(type(node).__match_args__)
            assert not hasattr(node, "__dict__")  # slotted: the caches are slots

    @pytest.mark.parametrize(
        "duplicate", [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))]
    )
    def test_copies_and_pickles_run_through_the_kernel(self, duplicate):
        original = parse("!(x1 & x2) | x3 & !T")
        serialize(original), variables(original), simplify(original)  # warm caches
        twin = duplicate(original)
        assert twin == original and hash(twin) == hash(original)
        assert serialize(twin) == serialize(original)
        assert variables(twin) == variables(original)
        assert simplify(twin) == simplify(original)
        assert split(twin, 1)[1] == split(original, 1)[1]

    def test_threads_sharing_formulas_fill_the_same_caches(self):
        # Caches are filled without a lock; a racing thread may only ever
        # store the value another thread would store.
        shared = [
            parse(f"(x{i} | !x{i + 1}) & (x{i + 2} | x{i + 3} & !(x{i} | x{i + 4}))")
            for i in range(1, 40)
        ]
        expected = [
            (reference_serialize(f), reference_variables(f), substituted(f, i, True))
            for i, f in enumerate(shared, start=1)
        ]
        failures = []

        def work():
            for _ in range(20):
                for formula, (text, occurring, child) in zip(shared, expected):
                    got = (serialize(formula), variables(formula), self_reduce(simplify(formula))[0])
                    if got != (text, occurring, child):
                        failures.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cache_misses_do_not_raise(self, seed):
        # Every cache starts as a sentinel, so filling it is a test, not a
        # caught AttributeError.
        formula = generate_random(12, 26, seed)
        raised = []

        def tracer(frame, event, arg):
            if event == "exception" and frame.f_code.co_filename == formula_module.__file__:
                raised.append(frame.f_code.co_name)
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            serialize(formula), variable_mask(formula), simplify(formula)
            self_reduce(formula), brute_force_count(formula)
        finally:
            sys.settrace(previous)
        assert raised == []


class VarSubclass(Var):
    __slots__ = ()


# Walkers dispatch on exact node classes, so a subclass instance is no formula.
NOT_FORMULAS = [
    5, "x1", None, And(Var(1), 5), Not(None), VarSubclass(1), Or(VarSubclass(1), Var(2))
]
KERNEL_CALLS = {
    "serialize": serialize,
    "variables": variables,
    "variable_mask": variable_mask,
    "simplify": simplify,
    "split": lambda f: split(f, 1),
    "self_reduce": self_reduce,
    "place_variables": lambda f: place_variables(f, 1),
    "evaluate": lambda f: evaluate(f, {1: True}),
    "brute_force_count": brute_force_count,
    "brute_force_sat": brute_force_sat,
}


class TestNotAFormula:
    @pytest.mark.parametrize("name", KERNEL_CALLS)
    @pytest.mark.parametrize("value", NOT_FORMULAS, ids=repr)
    def test_type_error_at_the_root_or_below(self, name, value):
        with pytest.raises(TypeError, match="^not a formula"):
            KERNEL_CALLS[name](value)


# Every public function that takes a formula: the kernel's, the deciders', the
# counter's and the combiner's (each operand).
ENTRY_POINTS = {
    **KERNEL_CALLS,
    "decide_via_selector": lambda f: decide_via_selector(f, honest_selector()),
    "decide_via_tally": lambda f: decide_via_tally(f, simulated_tally_reduction("canonical")),
    "decide_via_sparse": lambda f: decide_via_sparse(f, simulated_sparse_coreduction("singleton")),
    "count_via_enumerator": lambda f: count_via_enumerator(f, honest_two_enumerator("woeginger")),
    "exact_model_count": exact_model_count,
    "combine_left": lambda f: combine(f, Var(1)),
    "combine_right": lambda f: combine(Var(1), f),
}


class TestModelSearchNotAFormula:
    @pytest.mark.parametrize("value", NOT_FORMULAS, ids=repr)
    def test_first_model(self, value):
        with pytest.raises(MalformedInput, match="^not a formula"):
            first_model(value)

    @pytest.mark.parametrize("value", NOT_FORMULAS, ids=repr)
    def test_store(self, value):
        store = ModelStore()
        store.add({1: True, 2: True})
        with pytest.raises(MalformedInput, match="^not a formula"):
            store.holds(value)


class TestMalformedInput:
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("value", NOT_FORMULAS, ids=repr)
    def test_one_typed_error_from_every_entry_point(self, name, value):
        with pytest.raises(MalformedInput, match="^not a formula") as caught:
            ENTRY_POINTS[name](value)
        assert isinstance(caught.value, SelfReducibilityError)
        assert isinstance(caught.value, TypeError)


# Every formula strategy the split has been checked on.
SPLIT_INPUTS = st.one_of(formulas(max_vars=5, max_leaves=14), formulas(max_vars=6, max_leaves=12), formulas())


class TestOneWalkSplit:
    @settings(max_examples=400, deadline=None)
    @given(SPLIT_INPUTS, st.booleans())
    def test_children_match_the_assigning_walk(self, formula, presimplify):
        if presimplify:
            formula = simplify(formula)
        occurring = reference_variables(formula)
        for index in sorted(occurring):
            for child, value in zip(split(formula, index), (True, False)):
                expected = substituted(formula, index, value)
                assert child == expected
                assert serialize(child) == reference_serialize(expected)
                assert variables(child) == reference_variables(expected) <= occurring - {index}
                assert len(serialize(child)) < len(reference_serialize(formula))
                assert is_flat(child)
                if isinstance(child, (Not, And, Or)):
                    assert child._simple  # marked, so simplify returns it at once
                assert simplify(child) is child
        for value in (True, False):
            # A whole walk down one branch, each step on the previous result.
            current = formula
            while reference_variables(current):
                index = min(reference_variables(current))
                expected = substituted(current, index, value)
                current = split(current, index)[0 if value else 1]
                assert current == expected and serialize(current) == reference_serialize(expected)
        if occurring:
            true_child, false_child, split_var = self_reduce(formula)
            assert split_var == min(occurring)
            assert (true_child, false_child) == split(formula, split_var)

    def test_both_children_share_the_untouched_subtrees(self):
        formula = simplify(parse("(x1 | x2 & !(x3 | x4)) & (x5 | !x6) & !(x7 & x8)"))
        true_child, false_child = formula_module.split(formula, 1)
        first, second, third = formula.children
        assert true_child.children[0] is second and true_child.children[1] is third
        assert false_child.children[-2] is second and false_child.children[-1] is third

    def test_a_variable_that_simplification_drops(self):
        # x1 occurs in the input but not in its simplification.
        formula = parse("(x1 & F) | x2")
        assert formula_module.split(formula, 1) == (Var(2), Var(2))
        assert self_reduce(parse("x1 & F")) == (Const(False), Const(False), 1)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            formula_module.split(parse("x1 & x2"), 3)

    @pytest.mark.parametrize("value", NOT_FORMULAS, ids=repr)
    def test_not_a_formula(self, value):
        with pytest.raises(MalformedInput, match="^not a formula"):
            formula_module.split(value, 1)

    def test_simplify_takes_no_assignment(self):
        import inspect

        assert list(inspect.signature(formula_module.simplify).parameters) == ["formula"]


class TestCofactorMemo:
    @settings(max_examples=300, deadline=None)
    @given(formulas(max_vars=5, max_leaves=10), formulas(max_vars=5, max_leaves=10))
    def test_shared_subtrees_split_as_fresh(self, left, right):
        # F, F & G and !F | G share F (or its children) by identity; one memo
        # serves every split of all three on every variable.
        shared, other = simplify(left), simplify(right)
        memo = {}
        for formula in (shared, And(shared, other), Or(Not(shared), other)):
            for index in sorted(variables(formula)):
                fresh = split(formula, index)
                through = split(formula, index, memo)
                assert through == fresh
                assert [serialize(c) for c in through] == [serialize(c) for c in fresh]
                assert all(is_flat(child) for child in through)
            if variables(formula):
                assert self_reduce(formula, memo) == self_reduce(formula)

    def test_a_freed_node_is_not_taken_for_a_new_one(self):
        # CPython reuses the ids of freed nodes; the memo keeps each node it
        # keys so that a later formula's node never reads an earlier split.
        # Formula trees hold no reference cycles, so ``del`` frees a formula's
        # nodes at once, with no collection.
        memo = {}
        for seed in range(300):
            formula = simplify(generate_random(6, 12, seed))
            for index in sorted(variables(formula)):
                assert split(formula, index, memo) == split(formula, index)
            del formula

    def test_a_lone_part_of_the_same_connective_is_flattened(self):
        false_child = split(parse("x4 & (x1 & x5 | x2 & x3)"), 1)[1]
        assert false_child == parse("x4 & x2 & x3")
        assert len(false_child.children) == 3

    def test_a_shared_subtree_is_split_once(self):
        shared = parse("x2 & x4 | x3 & x5")
        memo = {}
        first = split(And(shared, Var(6)), 2, memo)[0]
        second = split(And(shared, Var(7)), 2, memo)[0]
        assert first == parse("(x4 | x3 & x5) & x6")
        assert first.children[0] is second.children[0]


class TestBlockColumns:
    @pytest.mark.parametrize("width", range(formula_module._BLOCK_VARS + 1))
    def test_columns_of_every_width(self, width):
        columns = formula_module._block_columns(width)
        assert columns is formula_module._block_columns(width)  # built once
        assert len(columns) == width
        for rank, column in enumerate(columns):
            half = 1 << rank  # from bit 0 up: 2^rank zeros, then 2^rank ones
            assert column == int(("1" * half + "0" * half) * ((1 << width) // (2 * half)), 2)


class TestReimport:
    def test_old_copies_are_freed(self):
        # A typing.Union alias of the node classes would stay in typing's
        # cache, and with it each old copy's globals and caches.
        import os
        import subprocess

        script = (
            "import gc, importlib, sys\n"
            "for _ in range(3):\n"
            "    for name in [n for n in sys.modules if n.startswith('selfred')]:\n"
            "        del sys.modules[name]\n"
            "    importlib.import_module('selfred').brute_force_count(\n"
            "        importlib.import_module('selfred').parse('x1 | x2'))\n"
            "gc.collect()\n"
            "print(sum(1 for o in gc.get_objects()\n"
            "          if isinstance(o, dict) and o.get('__name__') == 'selfred.formula'))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"


# Values of either truthiness that are not bools.
TRUTHY_OR_NOT = st.sampled_from([True, False, 0, 1, 2, -1, "", "a", None, [], [0], 0.0, 0.5])


class TestEvaluateByTruthTable:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(formulas(max_vars=6, max_leaves=14), formulas(max_vars=3, max_leaves=6)),
        st.dictionaries(st.integers(1, 12), TRUTHY_OR_NOT),
        st.data(),
    )
    def test_matches_the_recursive_evaluator(self, formula, extra, data):
        # Keys of variables that do not occur are ignored.
        values = {i: data.draw(TRUTHY_OR_NOT) for i in sorted(reference_variables(formula))}
        assignment = {**extra, **values}
        result = evaluate(formula, assignment)
        assert type(result) is bool
        assert result == evaluated(formula, assignment)
        # Splitting on each variable in turn ends at the same value.
        ground = formula
        for index, value in values.items():
            if index in variables(ground):
                ground = split(ground, index)[0 if value else 1]
        assert brute_force_count(ground) == int(result)

    @settings(max_examples=300, deadline=None)
    @given(formulas(max_vars=6, max_leaves=14), st.data())
    def test_a_missing_variable_is_named(self, formula, data):
        occurring = sorted(variables(formula))
        if not occurring:
            return
        missing = data.draw(st.sampled_from(occurring))
        assignment = {i: data.draw(st.booleans()) for i in occurring if i != missing}
        try:
            expected = evaluated(formula, assignment)
        except KeyError as exc:  # reached the missing variable: the same one is named
            assert exc.args[0] == missing
            with pytest.raises(IncompleteAssignment, match=f"missing variable x{missing}$"):
                evaluate(formula, assignment)
        else:  # short-circuited before it, in the same child order
            assert evaluate(formula, assignment) == expected

    def test_examples(self):
        formula = parse("x1 & !x2 | x3")
        assert evaluate(formula, {1: 1, 2: 0, 3: 0}) is True
        assert evaluate(formula, {1: "yes", 2: "no", 3: None}) is False
        assert evaluate(Const(True), {}) is True and evaluate(Const(False), {}) is False
        with pytest.raises(IncompleteAssignment, match="x2"):
            evaluate(formula, {1: True, 3: False})


@st.composite
def many_variable_formulas(draw):
    """Formulas over k = 17..20 variables with constant leaves, every index
    raised by 0 or 2000 (past the widest cached mask).  The k - 16 highest
    variables, the ones that are constant within a truth-table block, sit
    either in one subtree or anywhere."""
    k = draw(st.integers(17, 20))
    offset = draw(st.sampled_from([0, 2000]))
    clustered = draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))

    def leaves(indices, extra):
        occurrences = list(indices) + [rng.choice(indices) for _ in range(extra)]
        out = [Not(Var(i + offset)) if rng.random() < 0.35 else Var(i + offset) for i in occurrences]
        out += [Const(rng.random() < 0.5) for _ in range(rng.randint(0, 3))]
        rng.shuffle(out)
        return out

    def folded(nodes):
        while len(nodes) > 1:
            picked = [nodes.pop(rng.randrange(len(nodes))) for _ in range(rng.randint(2, min(3, len(nodes))))]
            node = rng.choice((And, Or))(*picked)
            nodes.append(Not(node) if rng.random() < 0.15 else node)
        return nodes[0]

    low, high = list(range(1, 17)), list(range(17, k + 1))
    if clustered:
        high_part = folded(leaves(high + rng.sample(low, 2), rng.randint(0, 4)))
        low_parts = [folded(leaves(low[i::2], rng.randint(0, 8))) for i in (0, 1)]
        formula = folded([high_part, *low_parts])
    else:
        formula = folded(leaves(low + high, rng.randint(0, k)))
    assert variable_mask(formula).bit_count() == k
    return formula


def walks_of(monkeypatch, node) -> list[int]:
    """Patch _truth_table to count the walks of one node object."""
    original = formula_module._truth_table
    walks = [0]

    def counted(formula, masks, full):
        walks[0] += formula is node
        return original(formula, masks, full)

    monkeypatch.setattr(formula_module, "_truth_table", counted)
    return walks


class TestConstantAwareTables:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(formulas(), formulas(max_vars=8, max_leaves=16), many_variable_formulas()))
    def test_count_and_lowest_model_by_enumeration(self, formula):
        expected = count(formula)
        assert brute_force_count(formula) == expected
        assert brute_force_sat(formula) == (expected > 0)
        assert first_model(formula) == lowest_model(formula)

    def test_constant_columns_propagate(self):
        # x17..x20 are constant within a block, and the tree is full of them.
        formula = And(Or(Var(17), Not(Var(18)), Var(1)), Not(And(Var(19), Var(20))), Or(Var(2), Const(False)))
        assert brute_force_count(formula) == count(formula)
        assert evaluate(Or(Const(True), Var(1)), {}) is True  # settled before x1 is read
        assert evaluate(And(Const(True), Var(1), Const(False)), {1: True}) is False


class TestBlockInvariantSubtables:
    def test_an_invariant_subtree_is_walked_once_per_call(self, monkeypatch):
        low = generate_random(16, 34, seed=4)
        formula = And(Or(Var(17), Var(18), Not(Var(19)), Var(20)), low)
        expected = count(formula)
        walks = walks_of(monkeypatch, low)
        assert brute_force_count(formula) == expected
        assert walks[0] == 1
        assert brute_force_count(formula) == expected  # tabulated again by the next call
        assert walks[0] == 2
        first_model(formula)
        assert walks[0] == 3

    def test_each_block_walks_only_the_reduced_tree(self, monkeypatch):
        # x1..x16 span a block and x17..x21 are constant in each of its 32
        # blocks.  Each low part is an Or under an And, so no constructor
        # flattens it away, and x3 is a low variable beside high ones.
        def low(a):
            return Or(And(Var(a), Not(Var(a + 1))), And(Var(a + 2), Var(a + 3)))

        x3, lows = Var(3), [low(a) for a in (1, 5, 9, 13)]
        kept = Not(Or(Var(17), Var(20)))  # holds high variables only
        formula = And(
            Or(x3, Var(17), Var(18)),
            Not(And(Var(19), lows[0])),
            Or(And(Var(20), lows[1]), And(Var(21), lows[2])),
            kept,
            lows[3],
        )
        expected = count(formula)
        walked, depth = [], [0]  # the formula of each outermost walk
        settled = set()  # every node _block_variant visits, by id
        walk, variant = formula_module._truth_table, formula_module._block_variant

        def counted_walk(node, masks, full):
            if not depth[0]:
                walked.append(node)
            depth[0] += 1
            try:
                return walk(node, masks, full)
            finally:
                depth[0] -= 1

        def counted_variant(node, *args):
            settled.add(id(node))
            return variant(node, *args)

        monkeypatch.setattr(formula_module, "_truth_table", counted_walk)
        monkeypatch.setattr(formula_module, "_block_variant", counted_variant)
        assert brute_force_count(formula) == expected
        # The stand-ins' tables first, one walk each of the gathered subtree
        # itself; then one walk per block, of the one reduced tree.
        assert [id(node) for node in walked[:5]] == [id(x3), *map(id, lows)]
        reduced = walked[5]
        assert len(walked) == 5 + 32 and all(node is reduced for node in walked[5:])
        assert serialize(reduced) == (
            "x26 & (x22 | x17 | x18) & !(x23 & x19) & (x24 & x20 | x25 & x21) & !(x17 | x20)"
        )
        assert reduced.children[4] is kept
        # A cached mask settles each low part at its root.
        inner = {id(node) for part in lows for node in subtrees(part) if node is not part}
        assert all(id(part) in settled for part in lows) and not settled & inner

    def test_single_block_tables_take_no_part(self, monkeypatch):
        formula = And(Or(Var(15), Var(16)), generate_random(14, 30, seed=4))
        walks = walks_of(monkeypatch, formula)
        brute_force_count(formula)
        assert walks[0] == 1  # the formula itself, in its one block

    @pytest.mark.parametrize("offset", [0, 2000])
    def test_wide_indices_cost_one_mask_walk(self, monkeypatch, offset):
        for seed in range(3):
            narrow = generate_random(20, 42, seed)
            formula = renamed(narrow, {i: i + offset for i in range(1, 21)})
            nodes = sum(1 for _ in subtrees(formula))
            expected = brute_force_count(narrow)
            original = formula_module.variable_mask
            calls = [0]

            def counted(node):
                calls[0] += 1
                return original(node)

            monkeypatch.setattr(formula_module, "variable_mask", counted)
            try:
                assert brute_force_count(formula) == expected
                assert calls[0] <= nodes + 2
                calls[0] = 0
                assert (first_model(formula) is None) == (expected == 0)
                assert calls[0] <= nodes + 2
            finally:
                monkeypatch.undo()


class TestOneStepCopies:
    @settings(max_examples=300, deadline=None)
    @given(formulas(max_vars=8, max_leaves=16), st.integers(1, 40))
    def test_the_simplified_mark_is_kept(self, formula, start):
        copy = place_variables(formula, start)  # of an unsimplified source
        simple = simplify(formula)
        simple_copy = place_variables(simple, start)
        assert simplify(simple_copy) is simple_copy  # marked, or a leaf
        assert (simplify(copy) is copy) == (simple is formula)
        # The unsimplified copy still folds its constants.
        in_order = {index: start + rank for rank, index in enumerate(sorted(reference_variables(formula)))}
        assert simplify(copy) == renamed(simple, in_order)

    def test_marks_follow_the_source(self):
        source = parse("(x1 | !x2) & !(x3 & T)")
        copy = place_variables(source, 5)
        assert not copy._simple and not copy.children[1]._simple
        assert serialize(simplify(copy)) == "(x5 | !x6) & !x7"
        simple = simplify(source)
        simple_copy = place_variables(simple, 5)
        assert simple_copy._simple and all(child._simple for child in simple_copy.children)
        assert simplify(simple_copy) is simple_copy
