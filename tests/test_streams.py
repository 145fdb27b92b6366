"""Stream parsing and synthetic stream generators."""

import math
import re

import numpy as np
import pytest

from entrosketch import sketch as sketch_mod
from entrosketch import streams as streams_mod
from entrosketch.sketch import new_sketch
from entrosketch.streams import (
    StreamParseError,
    _parse_line,
    counts_to_stream,
    iter_stream_file,
    iter_stream_lines,
    uniform_stream,
    zipf_counts,
    zipf_probabilities,
)


class TestParsing:
    def test_item_with_quantity(self):
        rows = list(iter_stream_lines(["a,2.5", "b,-1"]))
        assert rows == [("a", 2.5), ("b", -1.0)]

    def test_quantity_defaults_to_one(self):
        assert list(iter_stream_lines(["a", "b"])) == [("a", 1.0), ("b", 1.0)]

    def test_blank_and_comment_lines_skipped(self):
        rows = list(iter_stream_lines(["", "# header", "a,1", "   "]))
        assert rows == [("a", 1.0)]

    def test_custom_delimiter(self):
        rows = list(iter_stream_lines(["a|b,c|2"], delimiter="|"))
        # only the last field is the quantity; the item may contain commas
        assert rows == [("a|b,c", 2.0)]

    def test_rpartition_keeps_delimiters_in_item(self):
        rows = list(iter_stream_lines(["x,y,3"]))
        assert rows == [("x,y", 3.0)]

    def test_bad_quantity_reports_line_number(self):
        with pytest.raises(StreamParseError) as exc:
            list(iter_stream_lines(["a,1", "b,oops"]))
        assert exc.value.lineno == 2

    @pytest.mark.parametrize("line", [",5", ",", "|2"])
    def test_empty_item_rejected(self, line):
        with pytest.raises(StreamParseError, match="line 2: empty item"):
            list(iter_stream_lines(["a,1", line], delimiter=line[0]))

    @pytest.mark.parametrize("qty", ["1_000", "1_0.5", "\u0661\u0662", "\uff15", "5\u00a0"])
    def test_quantity_float_would_coerce_is_rejected(self, qty):
        # float() reads these as 1000, 10.5, 12, 5 and 5
        with pytest.raises(StreamParseError, match=f"^line 2: bad quantity {re.escape(repr(qty))}$"):
            list(iter_stream_lines(["a,1", f"b,{qty}"]))

    @pytest.mark.parametrize("qty, delta", [("+3", 3.0), ("1e3", 1000.0), (".5", 0.5), (" 5 ", 5.0)])
    def test_plain_ascii_quantities_accepted(self, qty, delta):
        assert list(iter_stream_lines([f"\u00e9,{qty}"])) == [("\u00e9", delta)]

    def test_non_finite_quantity_rejected(self):
        with pytest.raises(StreamParseError):
            list(iter_stream_lines(["a,inf"]))

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("a,1\nb,2\n")
        assert list(iter_stream_file(path)) == [("a", 1.0), ("b", 2.0)]

    def test_file_newlines(self, tmp_path):
        # \r\n and a lone \r end lines, also around blank and comment lines
        path = tmp_path / "stream.txt"
        path.write_bytes(b"# x\r\na\r\nb,2\rc,1\r\n\r\n\n# y\rd")
        assert list(iter_stream_file(path)) == [("a", 1.0), ("b", 2.0), ("c", 1.0), ("d", 1.0)]

    @pytest.mark.parametrize("data", [b"a,1\nb\xff,2\nc\n", b"a,1\n\xc3,2\n", b"a\n# \xff\n"])
    def test_file_not_utf8_reports_line_number(self, tmp_path, data):
        path = tmp_path / "stream.txt"
        path.write_bytes(data)
        with pytest.raises(StreamParseError, match="^line 2: not valid UTF-8$"):
            list(iter_stream_file(path))

    def test_surrogate_escaped_line_reports_line_number(self):
        # the line a byte stream decoded with surrogateescape gives for b"b\xff,2"
        with pytest.raises(StreamParseError, match="^line 2: not valid UTF-8$"):
            list(iter_stream_lines(["\u00e9,1\n", "b\udcff,2\n"]))


def zipf_lines(n, seed=0):
    """Lines in the shape of the benchmark's Zipf workload: Zipf(1.1) items
    over 10^4 ids with quantities 1-4, about 10% deletions of one unit,
    plus comments, blank lines, CRLF ends, non-ASCII items and the
    spellings "+1" and " 1" of a unit quantity."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(10_000, size=n, p=zipf_probabilities(10_000, 1.1))
    qty = rng.integers(1, 5, size=n)
    lines = []
    for i, (j, q) in enumerate(zip(ids, qty)):
        item = f"item{j}" if j % 5 else f"\u00e9t\u00e9{j}"
        q = -1 if i % 10 == 3 else int(q)
        spelling = {0: f"{item},{q:+d}", 1: f"{item}, {q}", 2: f"{item},{q}\r"}.get(i % 7, f"{item},{q}")
        lines.append(spelling + "\n")
        if i % 97 == 0:
            lines.append("# a comment\n" if i % 2 else "\n")
    return lines


def parsed(lines, delimiter=","):
    """The pairs of ``lines``, each line parsed on its own: no memo."""
    pairs = (_parse_line(line, delimiter, lineno) for lineno, line in enumerate(lines, start=1))
    return [pair for pair in pairs if pair is not None]


def loop_bytes(pairs, k=64, seed=5):
    sketch = new_sketch(k, master_seed=seed)
    for item, delta in pairs:
        sketch.update(item, delta)
    return sketch.to_bytes()


def ingested(lines, k=64, seed=5):
    """``entrosketch ingest``'s path: ``update_many`` of ``iter_stream_lines``."""
    return new_sketch(k, master_seed=seed).update_many(iter_stream_lines(lines)).to_bytes()


class TestCountedReader:
    """``iter_stream_lines`` parses each distinct line once per
    ``_MEMO_LINES`` distinct lines; ``update_many``'s counted blocks of its
    pairs give the bytes of one ``update`` per line, and the errors of a
    parse without the memo."""

    def test_blocks_count_the_pairs_of_their_lines(self, monkeypatch):
        # a, a,1, a,+1 and a, 1 are one pair
        assert ingested(["a\n", "a,1\n", "a,+1\n", "a, 1\n"]) == loop_bytes([("a", 1.0)] * 4)
        lines = ["a,1\n", "a,+1\n", "a\n", "# c\n", "b,2\n", "\n", "a, 1\n", "b,2.0\n", "c,-1\n"]
        ref = loop_bytes([("a", 1.0)] * 4 + [("b", 2.0)] * 2 + [("c", -1.0)])
        for block in (4, 100):
            monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", block)
            assert ingested(lines) == ref
        assert list(iter_stream_lines([])) == []

    @staticmethod
    def parses(monkeypatch, lines):
        """The lines ``iter_stream_lines`` hands to ``_parse_line``."""
        seen = []
        parse = streams_mod._parse_line
        monkeypatch.setattr(streams_mod, "_parse_line", lambda *a: seen.append(a[0]) or parse(*a))
        pairs = list(iter_stream_lines(lines))
        assert pairs == parsed(lines)
        return seen

    def test_each_distinct_line_is_parsed_once(self, monkeypatch):
        lines = ["a,1\n"] * 5 + ["b,2\n"] * 3 + ["\n"] * 2 + ["a,1\n"] * 2 + ["b,2\n", "\n"]
        assert self.parses(monkeypatch, lines) == ["a,1\n", "b,2\n", "\n"]

    def test_a_line_is_parsed_again_after_the_memo_is_cleared(self, monkeypatch):
        # two distinct lines kept: c clears the memo, so a is parsed again, and then kept
        monkeypatch.setattr(streams_mod, "_MEMO_LINES", 2)
        assert self.parses(monkeypatch, ["a", "b", "c", "a", "c", "a"]) == ["a", "b", "c", "a"]

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
    def test_bytes_equal_update_many_of_the_parsed_pairs(self, monkeypatch, block):
        lines = zipf_lines(3000)
        ref = loop_bytes(parsed(lines))
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", block)
        for memo in (1, 2, 1 << 16):
            monkeypatch.setattr(streams_mod, "_MEMO_LINES", memo)
            assert ingested(lines) == ref, memo

    @pytest.mark.parametrize("bad, message", [
        ("b\udcff,2\n", "not valid UTF-8"),
        ("b,1_000\n", "bad quantity '1_000'"),
        (",5\n", "empty item"),
        ("b,inf\n", "non-finite quantity 'inf'"),
    ])
    @pytest.mark.parametrize("lineno", [1, 2, 4, 6, 11])  # blocks of 4 pairs: first, mid, later
    def test_error_names_the_line_iter_stream_lines_names(self, monkeypatch, bad, message,
                                                          lineno):
        lines = ["a,1\n", "# c\n", "a,1\n", "\n", "z,2\n"] * 3
        lines[lineno - 1] = bad
        lines[lineno + 1] = "c,oops\n"  # a later bad line, in the same block or the next
        with pytest.raises(StreamParseError) as ref:
            parsed(lines)
        assert str(ref.value) == f"line {lineno}: {message}"
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 4)
        for memo in (1, 2, 1 << 16):
            monkeypatch.setattr(streams_mod, "_MEMO_LINES", memo)
            with pytest.raises(StreamParseError) as exc:
                list(iter_stream_lines(lines))
            assert str(exc.value) == str(ref.value) and exc.value.lineno == lineno
            with pytest.raises(StreamParseError) as exc:
                ingested(lines)
            assert str(exc.value) == str(ref.value) and exc.value.lineno == lineno

    def test_a_repeated_bad_line_is_named_where_it_first_appears(self):
        lines = ["a,1\n", "b,x\n", "a,1\n", "c,y\n", "b,x\n"]
        with pytest.raises(StreamParseError, match="^line 2: bad quantity 'x'$"):
            list(iter_stream_lines(lines))
        with pytest.raises(StreamParseError, match="^line 2: bad quantity 'x'$"):
            ingested(lines)

    def test_a_repeated_bad_line_is_named_after_a_memo_clear(self, monkeypatch):
        # the memo is cleared at lines 3 and 5, and b,x is never kept
        monkeypatch.setattr(streams_mod, "_MEMO_LINES", 2)
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 2)
        lines = ["a\n", "b\n", "c\n", "a\n", "b\n", "a\n", "b,x\n", "a\n", "b,x\n"]
        with pytest.raises(StreamParseError, match="^line 7: bad quantity 'x'$"):
            list(iter_stream_lines(lines))
        with pytest.raises(StreamParseError, match="^line 7: bad quantity 'x'$"):
            ingested(lines)

    def test_parse_error_beats_an_overflow_in_an_earlier_block(self, monkeypatch):
        # an infinite increment in block 1 and a bad quantity in block 2:
        # the whole stream is read, so the bad line wins
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 4)
        lines = ["x,1e308\n", "a,1\n", "b,1\n", "c,1\n", "d,1\n", "e,zz\n"]
        sketch = new_sketch(8)
        with pytest.raises(StreamParseError, match="^line 6: bad quantity 'zz'$"):
            sketch.update_many(iter_stream_lines(lines))
        assert sketch == new_sketch(8)


class TestGenerators:
    def test_uniform_stream_shape(self):
        rng = np.random.default_rng(0)
        rows = list(uniform_stream(4, 1000, rng))
        assert len(rows) == 1000
        items = {item for item, _ in rows}
        assert items <= {str(i) for i in range(4)}
        assert all(delta == 1.0 for _, delta in rows)

    def test_zipf_probabilities(self):
        p = zipf_probabilities(100, 1.2)
        assert p.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.diff(p) < 0)
        # p_1 / p_2 = 2^s
        assert p[0] / p[1] == pytest.approx(2.0**1.2, rel=1e-12)

    def test_zipf_counts_total(self):
        rng = np.random.default_rng(1)
        counts = zipf_counts(50, 1.2, 10_000, rng)
        assert counts.sum() == 10_000
        assert counts.shape == (50,)

    def test_counts_to_stream_drops_zeros(self):
        rows = list(counts_to_stream(np.array([3, 0, 1])))
        assert rows == [("0", 3.0), ("2", 1.0)]
