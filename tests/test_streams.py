"""Stream parsing and synthetic stream generators."""

import math
import re

import numpy as np
import pytest

from entrosketch.streams import (
    StreamParseError,
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
