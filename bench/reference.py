"""Model counts computed by the benchmark itself, so that answers are checked
against code the program under test does not share.

The canonical text of a formula is translated into a Python expression over
bit-parallel integers (``!`` -> ``~``; ``&`` and ``|`` keep their meaning and
their precedence).  The lowest ``LOW_BITS`` variables get dense masks; the
rest are enumerated one assignment at a time, which keeps memory small at 24
variables.
"""

from __future__ import annotations

import functools
import itertools
import re

LOW_BITS = 16
_TOKEN = re.compile(r"\s*(?:x([1-9][0-9]*)|([TF!&|()]))")


def _translate(text: str) -> tuple[str, list[int]]:
    out: list[str] = []
    indices: set[int] = set()
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"unexpected formula text at {pos}: {text!r}")
        pos = match.end()
        index, symbol = match.groups()
        if index is not None:
            indices.add(int(index))
            out.append(f"v{index}")
        else:
            out.append({"T": "full", "F": "0", "!": "~"}.get(symbol, symbol))
    return " ".join(out), sorted(indices)


@functools.cache
def _masks(k: int) -> tuple[int, tuple[int, ...]]:
    """(all-ones, masks) over 2**k assignments; bit a of mask p is bit p of a."""
    full = (1 << (1 << k)) - 1
    masks = []
    for p in range(k):
        half = 1 << p
        ones_at_period_starts = full // ((1 << (2 * half)) - 1)
        masks.append((((1 << half) - 1) << half) * ones_at_period_starts)
    return full, tuple(masks)


def model_count(text: str) -> int:
    """Number of assignments to the formula's own variables that satisfy it."""
    expression, indices = _translate(text)
    code = compile(expression, "<formula>", "eval")
    low, high = indices[:LOW_BITS], indices[LOW_BITS:]
    full, masks = _masks(len(low))
    env = {"full": full}
    env.update((f"v{i}", mask) for i, mask in zip(low, masks))
    total = 0
    for values in itertools.product((0, full), repeat=len(high)):
        env.update((f"v{i}", value) for i, value in zip(high, values))
        total += (eval(code, {"__builtins__": {}}, env) & full).bit_count()
    return total
