"""Layer spans recorded from outside the program.

``Tracer.install`` replaces names at the import sites of the consuming
modules with timing wrappers: the formula kernel as bound in
``selfred.{selector,pruning,counting,oracles,cli}``, the oracle classes'
query methods, ``exact_model_count``, the deciders, ``combine`` and
``write_outputs``.  Nothing inside ``selfred.formula`` is wrapped, so its
recursion is timed once, by the outermost call.

Spans live on an in-memory stack.  A closing span adds its duration to its
parent's child time and its self time (duration minus child time) to its
key's total.  Spans are folded as they close rather than kept whole: a
corpus pass opens millions of them.

The wrappers cost time of their own, and most of it falls outside the
span's clock interval but inside its parent's.  At construction the tracer
times an empty function with and without a wrapper to get that cost per
span, split into the part inside the span's interval and the part outside,
and takes both out of the self and inclusive times; the time spent in the
count observers is measured and taken out the same way.  The sum is
reported as ``trace.overhead_s``, so the corrected self times can be held
against an untraced run of the same passes.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
from collections import Counter

CONSUMERS = ("selector", "pruning", "counting", "oracles", "cli")
ORACLE_METHODS = (
    ("SelectorOracle", "choose"),
    ("TallyReductionOracle", "map"),
    ("SparseCoReductionOracle", "map"),
    ("TwoEnumeratorOracle", "enumerate"),
)
TRUTH_TABLES = ("brute_force_sat", "brute_force_count")
# Kernel functions reported one by one; the rest count only in the layer total.
KERNEL_FUNCTIONS = ("variables", "serialize", "substitute", "simplify", "rename_variables")
# Buckets whose self times partition the traced wall time.
BUCKETS = ("formula", "oracles", "selector", "pruning", "counting", "cli", "verify", "write")


def _bucket(layer: str, name: str) -> str:
    if layer == "cli" and name in ("verify", "write"):
        return name
    return layer


class Tracer:
    def __init__(self) -> None:
        self._stack: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []
        # (layer, name) -> [calls, self seconds, inclusive seconds]
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._const = None
        # Tracer time taken out of the spans so far: wrappers and observers.
        self._spent = [0.0]
        self._inside = self._outside = 0.0  # per-span cost; zero while calibrating
        self._inside, self._outside = self._calibrate()

    def _calibrate(self, calls: int = 20_000, repeats: int = 7) -> tuple[float, float]:
        """Per-span wrapper cost inside and outside the span's own clock
        interval: medians over ``repeats`` loops of ``calls`` calls to an
        empty function, bare and wrapped, inside an open span."""
        def empty(x):
            return x

        record = [0, 0.0, 0.0]
        wrapped = self._make(empty, record, None)
        clock = time.perf_counter
        inside, outside = [], []
        self._stack.append(0.0)
        for _ in range(repeats):
            start = clock()
            for i in range(calls):
                pass
            loop = clock() - start
            start = clock()
            for i in range(calls):
                empty(i)
            bare = clock() - start
            recorded = record[2]
            start = clock()
            for i in range(calls):
                wrapped(i)
            traced = clock() - start
            recorded = record[2] - recorded  # the wrapper's own intervals
            inside.append((recorded - (bare - loop)) / calls)
            outside.append((traced - loop - recorded) / calls)
        self._stack.pop()
        self._spent[0] = 0.0
        return max(statistics.median(inside), 0.0), max(statistics.median(outside), 0.0)

    # -- installation -------------------------------------------------

    def install(self, m) -> None:
        self._const = m.formula.Const
        formula_module = m.formula.__name__
        for consumer in CONSUMERS:
            module = getattr(m, consumer)
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == formula_module:
                    self._patch(module, name, self._kernel_key(consumer, name))
        for class_name, method in ORACLE_METHODS:
            self._patch(getattr(m.oracles, class_name), method, ("oracles", method))
        self._patch(m.oracles, "exact_model_count", ("oracles", "exact_count"))
        self._patch(m.counting, "combine", ("counting", "combine"), self._on_combine)
        self._patch(m.cli, "decide_via_selector", ("selector", "decide"), self._on_selector)
        for name in ("decide_via_tally", "decide_via_sparse"):
            self._patch(m.cli, name, ("pruning", name), self._on_levels)
        self._patch(m.cli, "count_via_enumerator", ("counting", "count"), self._on_count)
        self._patch(m.cli, "write_outputs", ("cli", "write"), self._on_write)
        self._patch(m.cli, "run", ("cli", "run"))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @staticmethod
    def _kernel_key(consumer: str, name: str) -> tuple[str, str]:
        if name in TRUTH_TABLES:
            if consumer == "oracles":
                return ("oracles", "truth_table")
            if consumer == "cli":
                return ("cli", "verify")
        return ("formula", name)

    def _patch(self, owner, name: str, key: tuple[str, str], observe=None) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, self._wrap(original, key, observe))

    def _wrap(self, fn, key, observe):
        return self._make(fn, self.spans.setdefault(key, [0, 0.0, 0.0]), observe)

    def _make(self, fn, record, observe):
        stack, spent = self._stack, self._spent
        inside, outside = self._inside, self._outside
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            before = spent[0]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                record[0] += 1
                record[1] += elapsed - children - inside
                record[2] += elapsed - inside - (spent[0] - before)
                spent[0] += inside + outside
                if stack:
                    stack[-1] += elapsed + outside
            if observe is not None:
                start = clock()
                observe(args, result)
                elapsed = clock() - start
                spent[0] += elapsed
                if stack:
                    stack[-1] += elapsed
            return result

        traced.__wrapped__ = fn
        return traced

    # -- deterministic counts taken from return values ------------------

    def _on_selector(self, args, result) -> None:
        _, path = result
        self.counts["requests"] += 1
        self.counts["selector.steps"] += len(path.steps)

    def _on_levels(self, args, result) -> None:
        _, stats = result
        c = self.counts
        c["requests"] += 1
        for depth in range(1, len(stats.levels)):
            parents = stats.levels[depth - 1].nodes
            c["pruning.nodes_split"] += sum(1 for node, _ in parents if not isinstance(node, self._const))
        for pre, post in stats.widths[1:]:
            c["pruning.pre_width"] += pre
            c["pruning.post_width"] += post
        c["pruning.children_mapped"] += max(stats.oracle_calls - 1, 0)
        for level in stats.levels:
            for event in level.prune_events:
                c["pruning.prune." + event.kind] += 1
        if stats.crossed_at is not None:
            c["pruning.crossings"] += 1
        c["pruning.capped_levels"] += len(stats.capped_levels)
        self.maxima["pruning.max_width"] = max(self.maxima["pruning.max_width"], stats.max_width)

    def _on_count(self, args, result) -> None:
        _, chain = result
        self.counts["requests"] += 1
        self.counts["counting.linkage_descents"] += len(chain)

    def _on_combine(self, args, recipe) -> None:
        self.counts["counting.combines"] += 1
        width = recipe.left_var_count + recipe.right_var_count + 2
        self.maxima["counting.combined_vars_max"] = max(self.maxima["counting.combined_vars_max"], width)

    def _on_write(self, args, result) -> None:
        config = args[1]
        for path in (config.trace_path, config.summary_path):
            if path:
                self.counts["cli.write_bytes"] += os.path.getsize(path)

    # -- report ---------------------------------------------------------

    def oracle_queries(self) -> int:
        return sum(self.spans[("oracles", method)][0] for method in ("choose", "map", "enumerate"))

    def metrics(self, wall_s: float, plain_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; shares are fractions of ``wall_s``, the summed
        duration of the traced passes, and ``plain_s`` is the duration of the
        same passes untraced."""
        spans, counts, maxima = self.spans, self.counts, self.maxima

        def calls(key):
            return spans.get(key, (0, 0.0, 0.0))[0]

        def inclusive(key):
            return spans.get(key, (0, 0.0, 0.0))[2]

        bucket_self = dict.fromkeys(BUCKETS, 0.0)
        bucket_calls = Counter()
        for (layer, name), (n, self_s, _) in spans.items():
            bucket = _bucket(layer, name)
            bucket_self[bucket] += self_s
            bucket_calls[bucket] += n
        share = lambda seconds: seconds / wall_s if wall_s else 0.0
        queries = self.oracle_queries()
        pre = counts["pruning.pre_width"]
        out: dict[str, tuple[float, str]] = {
            "trace.wall_s": (wall_s, "s"),
            "trace.overhead_frac": (wall_s / plain_s - 1.0, "frac"),
            "trace.overhead_s": (self._spent[0], "s"),
            "trace.overhead.share": (share(self._spent[0]), "frac"),
            "trace.span_cost_us": ((self._inside + self._outside) * 1e6, "us"),
            "trace.accounted_frac": (sum(bucket_self.values()) / plain_s, "frac"),
            "trace.requests": (counts["requests"], "count"),
            "formula.calls": (bucket_calls["formula"], "count"),
            "formula.self_s": (bucket_self["formula"], "s"),
            "formula.share": (share(bucket_self["formula"]), "frac"),
        }
        for name in KERNEL_FUNCTIONS:
            key = ("formula", name)
            out[f"formula.{name}.calls"] = (calls(key), "count")
            out[f"formula.{name}.self_s"] = (spans.get(key, (0, 0.0, 0.0))[1], "s")
            out[f"formula.{name}.share"] = (share(spans.get(key, (0, 0.0, 0.0))[1]), "frac")
        truth_key, exact_key = ("oracles", "truth_table"), ("oracles", "exact_count")
        out.update(
            {
                "oracles.calls": (queries, "count"),
                "oracles.self_s": (bucket_self["oracles"], "s"),
                "oracles.share": (share(bucket_self["oracles"]), "frac"),
                "oracles.truth_tables": (calls(truth_key), "count"),
                "oracles.truth_table_s": (inclusive(truth_key), "s"),
                "oracles.truth_table.share": (share(inclusive(truth_key)), "frac"),
                "oracles.truth_tables_per_call": (calls(truth_key) / queries if queries else 0.0, "ratio"),
                "oracles.exact_count.calls": (calls(exact_key), "count"),
                "oracles.exact_count_s": (inclusive(exact_key), "s"),
                "oracles.exact_count.share": (share(inclusive(exact_key)), "frac"),
                "selector.self_s": (bucket_self["selector"], "s"),
                "selector.share": (share(bucket_self["selector"]), "frac"),
                "selector.steps": (counts["selector.steps"], "count"),
                "pruning.self_s": (bucket_self["pruning"], "s"),
                "pruning.share": (share(bucket_self["pruning"]), "frac"),
                "pruning.nodes_split": (counts["pruning.nodes_split"], "count"),
                "pruning.children_mapped": (counts["pruning.children_mapped"], "count"),
                "pruning.kept_ratio": (counts["pruning.post_width"] / pre if pre else 0.0, "ratio"),
                "pruning.prune.duplicate_image": (counts["pruning.prune.duplicate_image"], "count"),
                "pruning.prune.non_tally": (counts["pruning.prune.non_tally"], "count"),
                "pruning.crossings": (counts["pruning.crossings"], "count"),
                "pruning.capped_levels": (counts["pruning.capped_levels"], "count"),
                "pruning.max_width": (maxima["pruning.max_width"], "count"),
                "counting.self_s": (bucket_self["counting"], "s"),
                "counting.share": (share(bucket_self["counting"]), "frac"),
                "counting.combines": (counts["counting.combines"], "count"),
                "counting.combined_vars_max": (maxima["counting.combined_vars_max"], "count"),
                "counting.linkage_descents": (counts["counting.linkage_descents"], "count"),
                "cli.self_s": (bucket_self["cli"], "s"),
                "cli.share": (share(bucket_self["cli"]), "frac"),
                "cli.verify_calls": (bucket_calls["verify"], "count"),
                "cli.verify_s": (bucket_self["verify"], "s"),
                "cli.verify.share": (share(bucket_self["verify"]), "frac"),
                "cli.write_s": (bucket_self["write"], "s"),
                "cli.write.share": (share(bucket_self["write"]), "frac"),
                "cli.write_bytes": (counts["cli.write_bytes"], "bytes"),
            }
        )
        return out
