"""Stream file parsing and synthetic stream generators.

File format: UTF-8 text, one record per line, "item<delim>quantity"; the
quantity field is optional and defaults to +1 (plain item lists).  A
quantity is a finite ASCII decimal number, with no '_' ("+3", "1e3", ".5"
and " 5 " are fine).  Blank lines and lines starting with '#' are skipped.
A line that is not valid UTF-8, an empty item or any other quantity raises
``StreamParseError``, naming the line.

``_parse_line`` is the one parser and ``iter_stream_lines`` the one
reader, of ``entrosketch ingest`` and ``oracle`` alike.  It keeps the
parse of each distinct line it has seen, up to ``_MEMO_LINES`` of them,
then starts afresh, so a stream of repeated lines costs about one parse
per distinct line.  A bad line is never kept, so the first bad line in
file order raises ``line N: ...``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the generators import numpy themselves: parsing a file needs none
    import numpy as np


_MEMO_LINES = 1 << 16  # distinct parsed lines iter_stream_lines keeps before it starts afresh


class StreamParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_line(line: str, delimiter: str, lineno: int):
    """The ``(item, delta)`` of one raw line, or None for a blank or
    comment line.  A bad line raises ``StreamParseError`` naming ``lineno``."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:  # a byte that surrogateescape decoding kept
            raise StreamParseError(lineno, "not valid UTF-8") from None
    line = line.rstrip("\n")
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    item, sep, qty = line.rpartition(delimiter)
    if not sep:
        item, qty = line, "1"
    elif not item:
        # the line starts with its only delimiter
        raise StreamParseError(lineno, "empty item")
    try:
        if "_" in qty or not qty.isascii():  # float() takes "1_000" and non-ASCII digits
            raise ValueError
        delta = float(qty)
    except ValueError:
        raise StreamParseError(lineno, f"bad quantity {qty!r}") from None
    if not math.isfinite(delta):
        raise StreamParseError(lineno, f"non-finite quantity {qty!r}")
    return item, delta


def iter_stream_lines(lines, delimiter: str = ","):
    """The ``(item, delta)`` of every line in order, each distinct line
    parsed once per ``_MEMO_LINES`` distinct lines."""
    memo: dict[str, tuple[str, float] | None] = {}
    for lineno, line in enumerate(lines, start=1):
        if (pair := memo.get(line, line)) is line:  # not seen: the line itself comes back
            pair = _parse_line(line, delimiter, lineno)
            if len(memo) >= _MEMO_LINES:
                memo.clear()
            memo[line] = pair
        if pair is not None:
            yield pair


def open_stream_file(path):
    """A stream file opened as the format reads it: UTF-8 with
    surrogateescape, so a byte that is not UTF-8 reaches the parser,
    which names its line."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def iter_stream_file(path, delimiter: str = ","):
    with open_stream_file(path) as fp:
        yield from iter_stream_lines(fp, delimiter)


def uniform_stream(n_items: int, n_updates: int, rng: np.random.Generator):
    """n_updates unit-quantity updates drawn uniformly over n_items types."""
    draws = rng.integers(0, n_items, size=n_updates)
    for j in draws:
        yield str(int(j)), 1.0


def zipf_probabilities(n_items: int, s: float) -> np.ndarray:
    import numpy as np

    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    p = ranks**-s
    return p / p.sum()


def zipf_counts(n_items: int, s: float, n_updates: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial item totals of a Zipf(s) stream of n_updates updates."""
    import numpy as np

    return rng.multinomial(n_updates, zipf_probabilities(n_items, s)).astype(np.float64)


def counts_to_stream(counts):
    """Weighted one-update-per-item stream with the given totals."""
    for j, c in enumerate(counts):
        if c:
            yield str(j), float(c)
