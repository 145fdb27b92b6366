"""Stream parsing and synthetic stream generators."""

import math
import re

import numpy as np
import pytest

from entrosketch import sketch as sketch_mod
from entrosketch.sketch import new_sketch, sketch_stream
from entrosketch.streams import (
    StreamParseError,
    count_stream_lines,
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


def counted(lines, block, delimiter=","):
    return list(count_stream_lines(lines, delimiter, block))


class TestCountedReader:
    """``count_stream_lines``: one Counter of (item, delta) per block of raw
    lines, each distinct line parsed once, and the errors of
    ``iter_stream_lines``."""

    def test_blocks_count_the_pairs_of_their_lines(self):
        lines = ["a,1\n", "a,+1\n", "a\n", "# c\n", "b,2\n", "\n", "a, 1\n", "b,2.0\n", "c,-1\n"]
        assert counted(lines, 4) == [{("a", 1.0): 3}, {("b", 2.0): 2, ("a", 1.0): 1},
                                     {("c", -1.0): 1}]
        assert counted(lines, 100) == [{("a", 1.0): 4, ("b", 2.0): 2, ("c", -1.0): 1}]
        assert counted([], 4) == []

    def test_each_distinct_line_is_parsed_once(self, monkeypatch):
        import entrosketch.streams as streams_mod

        parsed = []
        parse = streams_mod._parse_line
        monkeypatch.setattr(streams_mod, "_parse_line", lambda *a: parsed.append(a[0]) or parse(*a))
        counted(["a,1\n"] * 5 + ["b,2\n"] * 3 + ["a,1\n"] * 2 + ["b,2\n"], 8)
        assert parsed == ["a,1\n", "b,2\n", "a,1\n", "b,2\n"]  # two blocks, two lines each

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
    def test_bytes_equal_update_many_of_the_parsed_pairs(self, block):
        lines = zipf_lines(3000)
        ref = sketch_stream(iter_stream_lines(lines), k=64, master_seed=5).to_bytes()
        sketch = new_sketch(64, master_seed=5).update_counts(count_stream_lines(lines, ",", block))
        assert sketch.to_bytes() == ref

    @pytest.mark.parametrize("bad, message", [
        ("b\udcff,2\n", "not valid UTF-8"),
        ("b,1_000\n", "bad quantity '1_000'"),
        (",5\n", "empty item"),
        ("b,inf\n", "non-finite quantity 'inf'"),
    ])
    @pytest.mark.parametrize("lineno", [1, 2, 4, 6, 11])  # blocks of 4: first, mid, last, later
    def test_error_names_the_line_iter_stream_lines_names(self, bad, message, lineno):
        lines = ["a,1\n", "# c\n", "a,1\n", "\n", "z,2\n"] * 3
        lines[lineno - 1] = bad
        lines[lineno + 1] = "c,oops\n"  # a later bad line, in the same block or the next
        with pytest.raises(StreamParseError) as ref:
            list(iter_stream_lines(lines))
        with pytest.raises(StreamParseError) as exc:
            counted(lines, 4)
        assert str(exc.value) == str(ref.value) == f"line {lineno}: {message}"
        assert exc.value.lineno == lineno

    def test_a_repeated_bad_line_is_named_where_it_first_appears(self):
        lines = ["a,1\n", "b,x\n", "a,1\n", "c,y\n", "b,x\n"]
        with pytest.raises(StreamParseError, match="^line 2: bad quantity 'x'$"):
            counted(lines, 5)

    def test_parse_error_beats_an_overflow_in_an_earlier_block(self, monkeypatch):
        # an infinite increment in block 1 and a bad quantity in block 2:
        # the whole stream is read, so the bad line wins, as in update_many
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 4)
        lines = ["x,1e308\n", "a,1\n", "b,1\n", "c,1\n", "d,1\n", "e,zz\n"]
        message = "^line 6: bad quantity 'zz'$"
        with pytest.raises(StreamParseError, match=message):
            new_sketch(8).update_many(iter_stream_lines(lines))
        sketch = new_sketch(8)
        with pytest.raises(StreamParseError, match=message):
            sketch.update_counts(count_stream_lines(lines, ",", 4))
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
