"""CLI flows: ingest -> estimate -> merge, plus size/oracle/bench."""

import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrosketch
from entrosketch import bench
from entrosketch import sketch as sketch_mod
from entrosketch.bench import ExperimentSpec
from entrosketch.cli import _g, main
from entrosketch.estimator import estimate
from entrosketch.sketch import EntropySketch, new_sketch, sketch_stream
from entrosketch.sketchfile import (
    FORMAT_VERSION, HEADER, LIMIT, MAGIC, SketchConfig, SketchFile,
)


def parse_kv(out: str) -> dict:
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def write_stream(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def mixed_lines(n):
    """Repeated items, mixed-sign fractional quantities, bare items, comments."""
    qty = ["1", "-0.5", "2.75", "3", "-1.25", "0.125", ""]
    lines = []
    for i in range(n):
        item = f"it{(i * 7) % 13}"
        q = qty[i % len(qty)]
        lines.append(f"{item},{q}" if q else item)
        if i % 17 == 0:
            lines.append("# comment")
    return lines


def loop_bytes(lines, k, seed):
    """Sketch bytes from one in-process update() per parsed line."""
    s = new_sketch(k=k, master_seed=seed)
    for line in lines:
        if line.startswith("#"):
            continue
        item, _, q = line.partition(",")
        s.update(item, float(q) if q else 1.0)
    return s.to_bytes()


@pytest.fixture
def uniform4_file(tmp_path):
    lines = [f"{i % 4},1" for i in range(8000)]
    return write_stream(tmp_path, "u4.csv", lines)


class TestIngestEstimate:
    def test_roundtrip(self, tmp_path, capsys, uniform4_file):
        out = str(tmp_path / "sketch.bin")
        assert main(["ingest", "--input", uniform4_file, "--output", out,
                     "--k", "200", "--seed", "5"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["k"] == "200"
        assert float(kv["total"]) == 8000.0

        assert main(["estimate", out]) == 0
        kv = parse_kv(capsys.readouterr().out)
        h = float(kv["entropy"])
        se = float(kv["asymptotic_se"])
        assert abs(h - math.log(4)) <= 4 * se
        assert float(kv["delta"]) == -h

    def test_stdin_ingest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a,1\nb,1\n"))
        out = str(tmp_path / "s.bin")
        assert main(["ingest", "--output", out, "--k", "10"]) == 0
        sketch = EntropySketch.from_bytes(Path(out).read_bytes())
        assert sketch.total == 2.0

    def test_bc_none_mode(self, tmp_path, capsys):
        src = write_stream(tmp_path, "s.csv", ["a,1", "b,1"])
        out = str(tmp_path / "s.bin")
        main(["ingest", "--input", src, "--output", out, "--k", "10"])
        capsys.readouterr()
        assert main(["estimate", out, "--bc-mode", "none"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["bias_correction"]) == 0.0

    def test_quadrature_estimate_prints_no_log(self, tmp_path, capsys):
        # the quadrature logs at INFO, which the CLI does not show
        src = write_stream(tmp_path, "s.csv", ["a,1", "b,2"])
        out = str(tmp_path / "s.bin")
        main(["ingest", "--input", src, "--output", out, "--k", "5", "--zeta", "0.9"])
        capsys.readouterr()
        assert main(["estimate", out]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert list(parse_kv(captured.out)) == ["entropy", "delta", "bias_correction", "asymptotic_se"]

    def test_recommended_width_estimate_is_corrected_silently(self, tmp_path, capsys):
        # k=2217 is the width `size --epsilon 0.1 --gamma 0.05` recommends
        src = write_stream(tmp_path, "s.csv", ["a,1", "b,2"])
        out = str(tmp_path / "s.bin")
        main(["ingest", "--input", src, "--output", out, "--k", "2217"])
        capsys.readouterr()
        assert main(["estimate", out]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert float(parse_kv(captured.out)["bias_correction"]) == pytest.approx(-6.77e-4, abs=5e-7)

    def test_seed_env_default(self, tmp_path, capsys, monkeypatch):
        src = write_stream(tmp_path, "s.csv", ["a,1"])
        out_a = str(tmp_path / "a.bin")
        out_b = str(tmp_path / "b.bin")
        monkeypatch.setenv("ENTROSKETCH_SEED", "99")
        main(["ingest", "--input", src, "--output", out_a, "--k", "8"])
        main(["ingest", "--input", src, "--output", out_b, "--k", "8", "--seed", "99"])
        assert Path(out_a).read_bytes() == Path(out_b).read_bytes()

    def test_bad_seed_env_fails_only_where_it_is_used(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ENTROSKETCH_SEED", "abc")
        assert main(["size", "--epsilon", "0.1", "--gamma", "0.05"]) == 0
        src = write_stream(tmp_path, "s.csv", ["a,1"])
        out = tmp_path / "s.bin"
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--input", src, "--output", str(out), "--k", "8"])
        assert exc.value.code == 2
        assert "--seed: invalid int value: 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        src = write_stream(tmp_path, "bad.csv", ["a,notanumber"])
        out = str(tmp_path / "s.bin")
        assert main(["ingest", "--input", src, "--output", out, "--k", "8"]) == 1
        assert "error" in capsys.readouterr().err

    def test_ingest_matches_update_loop_bitwise(self, tmp_path, capsys):
        lines = mixed_lines(300)
        src = write_stream(tmp_path, "m.csv", lines)
        out = tmp_path / "m.bin"
        assert main(["ingest", "--input", src, "--output", str(out),
                     "--k", "64", "--seed", "3"]) == 0
        assert out.read_bytes() == loop_bytes(lines, 64, 3)

    def test_ingest_across_block_boundary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 11)
        monkeypatch.setattr(sketch_mod, "_BATCH_VARIATES", 3 * 64)
        lines = mixed_lines(100)
        src = write_stream(tmp_path, "m.csv", lines)
        out = tmp_path / "m.bin"
        assert main(["ingest", "--input", src, "--output", str(out),
                     "--k", "64", "--seed", "3"]) == 0
        assert out.read_bytes() == loop_bytes(lines, 64, 3)

    def test_parse_error_after_valid_lines(self, tmp_path, capsys):
        src = write_stream(tmp_path, "bad.csv", ["a,1", "b,2", "# note", "", "a,-1", "c,1e",
                                                 "d,1"])
        out = tmp_path / "s.bin"
        assert main(["ingest", "--input", src, "--output", str(out), "--k", "8"]) == 1
        assert "line 6" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_quantity_fails_cleanly(self, tmp_path, capsys):
        src = write_stream(tmp_path, "big.csv", ["a,1", "x,1e15"])
        out = tmp_path / "s.bin"
        assert main(["ingest", "--input", src, "--output", str(out), "--k", "8"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_estimate_empty_sketch_fails(self, tmp_path, capsys):
        src = write_stream(tmp_path, "e.csv", ["# nothing"])
        out = str(tmp_path / "s.bin")
        main(["ingest", "--input", src, "--output", out, "--k", "8"])
        capsys.readouterr()
        assert main(["estimate", out]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--reps", "10"], "unrecognized arguments: --reps 10"),
        (["--bc-mode", "mc"], "argument --bc-mode: invalid choice: 'mc'"),
    ], ids=["reps", "bc-mode-mc"])
    def test_monte_carlo_flags_exit_2(self, tmp_path, capsys, flags, message):
        # the bias correction has no Monte Carlo path, and so no options for one
        with pytest.raises(SystemExit) as exc:
            main(["estimate", _sketch_file(tmp_path, "s.bin", 4), *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("k", [64, 4])
    def test_reps_below_one_fails_at_any_k(self, tmp_path, capsys, k):
        # --reps is gone, so a bad replicate count is refused before any bias work
        with pytest.raises(SystemExit) as exc:
            main(["estimate", _sketch_file(tmp_path, "s.bin", k), "--reps", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --reps 0" in captured.err

    @pytest.mark.parametrize("zeta", [1e-300, 600.0])
    def test_zeta_without_a_standard_error_fails_cleanly(self, tmp_path, capsys, zeta):
        # 1e-300**2 underflows to 0 and 4.0**600 overflows.  ingest refuses
        # such a zeta before it opens its input (here a missing file)
        message = f"zeta={zeta!r} has no finite positive asymptotic standard error at k=5"
        out = tmp_path / "s.bin"
        assert main(["ingest", "--input", str(tmp_path / "missing.csv"), "--output", str(out),
                     "--k", "5", "--zeta", repr(zeta)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()
        # and both loaders refuse a hand-packed v1 file that holds one
        out.write_bytes(HEADER.pack(MAGIC, FORMAT_VERSION, 5, zeta, 0, 3.0)
                        + struct.pack("<5d", 1.0, 2.0, 0.5, -1.0, 0.25))
        assert main(["estimate", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        document = {"format_version": FORMAT_VERSION, "k": 5, "zeta": zeta, "master_seed": 0,
                    "total": 3.0, "projections": [1.0, 2.0, 0.5, -1.0, 0.25]}
        with pytest.raises(ValueError) as exc:
            SketchFile.from_json(json.dumps(document))
        assert str(exc.value) == message

    def test_k1_estimate_fails_and_estimates_uncorrected(self, tmp_path, capsys):
        path = _sketch_file(tmp_path, "s.bin", 1)
        assert main(["estimate", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: k=1 has no finite bias correction")
        assert main(["estimate", path, "--bc-mode", "none"]) == 0
        assert parse_kv(capsys.readouterr().out)["bias_correction"] == "0"

    def test_corrupt_sketch_fails(self, tmp_path, capsys):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a sketch")
        assert main(["estimate", str(path)]) == 1


class TestMerge:
    def test_merge_equals_single_pass(self, tmp_path, capsys):
        a_src = write_stream(tmp_path, "a.csv", ["a,1", "b,2"])
        b_src = write_stream(tmp_path, "b.csv", ["c,3"])
        ab_src = write_stream(tmp_path, "ab.csv", ["a,1", "b,2", "c,3"])
        a, b, ab, merged = (str(tmp_path / n) for n in ("a.bin", "b.bin", "ab.bin", "m.bin"))
        for src, dst in ((a_src, a), (b_src, b), (ab_src, ab)):
            main(["ingest", "--input", src, "--output", dst, "--k", "16", "--seed", "7"])
        capsys.readouterr()
        assert main(["merge", a, b, "--output", merged]) == 0
        assert Path(merged).read_bytes() == Path(ab).read_bytes()

    def test_mismatched_configs_fail(self, tmp_path, capsys):
        src = write_stream(tmp_path, "s.csv", ["a,1"])
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        main(["ingest", "--input", src, "--output", a, "--k", "8"])
        main(["ingest", "--input", src, "--output", b, "--k", "16"])
        capsys.readouterr()
        assert main(["merge", a, b, "--output", str(tmp_path / "m.bin")]) == 1


def run_cli(argv, files=None):
    """(exit code, stdout, stderr, output bytes or None) of ``main(argv)``
    in a fresh directory holding ``files``, a {name: bytes} map; names in
    argv are paths in that directory, and the output file is ``out.bin``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in (files or {}).items():
            Path(tmp, name).write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([os.path.join(tmp, a) if a.endswith(".bin") else a for a in argv])
        written = Path(tmp, "out.bin")
        return code, out.getvalue(), err.getvalue(), written.read_bytes() if written.exists() else None


items = st.text(min_size=1, max_size=6)
widths = st.sampled_from([1, 2, 16, 200])
seeds = st.integers(min_value=0, max_value=2**64 - 1)


class TestFileContracts:
    """``estimate`` and ``merge`` read sketch files through ``sketchfile``,
    without numpy, and give the library's bytes and digits."""

    @given(
        st.lists(st.tuples(items, st.integers(-20, 20).map(float)), max_size=25),
        st.lists(st.tuples(items, st.integers(-20, 20).map(float)), max_size=25),
        widths,
        seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_bytes_equal_library_and_single_pass(self, xs, ys, k, seed):
        a = sketch_stream(xs, k=k, master_seed=seed).to_bytes()
        b = sketch_stream(ys, k=k, master_seed=seed).to_bytes()
        code, out, _, merged = run_cli(["merge", "a.bin", "b.bin", "--output", "out.bin"],
                                       {"a.bin": a, "b.bin": b})
        library = EntropySketch.from_bytes(a).merge(EntropySketch.from_bytes(b))
        assert code == 0
        assert merged == library.to_bytes() == sketch_stream(xs + ys, k=k, master_seed=seed).to_bytes()
        assert out == f"total={_g(library.total)}\n"

    @given(
        st.lists(st.tuples(items, st.integers(1, 20).map(float)), min_size=1, max_size=25),
        widths,
        st.sampled_from([0.9, 1.0, 1.15]),
        seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_estimate_prints_the_library_estimate(self, xs, k, zeta, seed):
        # k=2, k=16 and k=200 take the quadrature, and k=1, which has no
        # bias correction, the library's error
        data = sketch_stream(xs, k=k, zeta=zeta, master_seed=seed).to_bytes()
        code, out, err, _ = run_cli(["estimate", "s.bin"], {"s.bin": data})
        if k == 1:
            with pytest.raises(ValueError) as exc:
                estimate(EntropySketch.from_bytes(data))
            assert (code, out, err) == (1, "", f"error: {exc.value}\n")
            return
        r = estimate(EntropySketch.from_bytes(data))
        assert code == 0
        assert out == (f"entropy={_g(r.entropy_hat)}\ndelta={_g(r.delta_hat)}\n"
                       f"bias_correction={_g(r.bias_correction)}\nasymptotic_se={_g(r.asymptotic_se)}\n")


VALID = sketch_stream([("a", 1.0), ("b", 2.5), ("c", -0.5)], k=12, zeta=0.9, master_seed=77).to_bytes()
TOTAL_AT = HEADER.size - 8  # the total is the header's last field


def with_value(offset, value):
    data = bytearray(VALID)
    struct.pack_into("<d", data, offset, value)
    return bytes(data)


class TestLoadFailures:
    """A malformed file, unequal configs or a sum at the 2^53 limit make
    ``estimate`` and ``merge`` exit 1 with ``error: ...`` and write no file."""

    BAD_FILES = [
        pytest.param(VALID[: HEADER.size - 1], "header incomplete", id="truncated-header"),
        pytest.param(VALID[:-3], "length", id="truncated-projections"),
        pytest.param(VALID + bytes(8), "length", id="too-long"),
        pytest.param(b"XXXX" + VALID[4:], "magic", id="bad-magic"),
        pytest.param(VALID[:4] + struct.pack("<H", FORMAT_VERSION + 1) + VALID[6:], "version",
                     id="bad-version"),
        pytest.param(with_value(14, math.inf), "zeta", id="inf-zeta"),  # the header's zeta field
        pytest.param(with_value(HEADER.size, math.nan), "finite", id="nan-projection"),
        pytest.param(with_value(TOTAL_AT, -math.inf), "finite", id="inf-total"),
        pytest.param(with_value(HEADER.size + 8, -(2.0**37)), "2\\^37", id="projection-2^37"),
        pytest.param(with_value(TOTAL_AT, 2.0**37), "2\\^37", id="total-2^37"),
    ]

    @staticmethod
    def assert_refused(argv, files, match):
        code, out, err, written = run_cli(argv, files)
        assert (code, out, written) == (1, "", None)
        assert re.fullmatch(f"error: .*{match}.*\n", err), err

    @pytest.mark.parametrize("bad, match", BAD_FILES)
    def test_bad_file(self, bad, match):
        files = {"bad.bin": bad, "good.bin": VALID}
        self.assert_refused(["estimate", "bad.bin"], files, match)
        for pair in (["bad.bin", "good.bin"], ["good.bin", "bad.bin"]):
            self.assert_refused(["merge", *pair, "--output", "out.bin"], files, match)

    @given(st.integers(0, len(VALID) - 1))
    @settings(max_examples=30, deadline=None)
    def test_every_truncation_is_refused(self, n):
        files = {"cut.bin": VALID[:n], "good.bin": VALID}
        self.assert_refused(["estimate", "cut.bin"], files, "")
        self.assert_refused(["merge", "good.bin", "cut.bin", "--output", "out.bin"], files, "")

    @pytest.mark.parametrize("config", [dict(k=13), dict(zeta=1.0), dict(master_seed=78)])
    def test_merge_of_unequal_configs(self, config):
        other = sketch_stream([("a", 1.0)], **{"k": 12, "zeta": 0.9, "master_seed": 77, **config})
        self.assert_refused(["merge", "a.bin", "b.bin", "--output", "out.bin"],
                            {"a.bin": VALID, "b.bin": other.to_bytes()}, "different configs")

    @given(st.integers(1, LIMIT - 1), st.integers(-2, 2), st.sampled_from([1, -1]),
           st.sampled_from(["projection", "total"]))
    @settings(max_examples=60, deadline=None)
    def test_merge_at_the_limit(self, a, offset, sign, field):
        # |a + b| = 2^53 + offset in units of 2^-16: offset >= 0 is refused
        b = min(LIMIT - a + offset, LIMIT - 1)
        config = SketchConfig(k=3, zeta=1.0, master_seed=5)

        def file_with(value):
            scaled = (sign * value, 7, -7) if field == "projection" else (7, 7, -7)
            total = sign * value if field == "total" else 7
            return SketchFile(config, scaled, total).to_bytes()

        files = {"a.bin": file_with(a), "b.bin": file_with(b)}
        argv = ["merge", "a.bin", "b.bin", "--output", "out.bin"]
        if a + b >= LIMIT:
            self.assert_refused(argv, files, "exact-double range")
            with pytest.raises(OverflowError):
                EntropySketch.from_bytes(files["a.bin"]).merge(EntropySketch.from_bytes(files["b.bin"]))
        else:
            code, _, _, merged = run_cli(argv, files)
            library = EntropySketch.from_bytes(files["a.bin"]).merge(
                EntropySketch.from_bytes(files["b.bin"]))
            assert code == 0
            assert merged == library.to_bytes()
            loaded = SketchFile.from_bytes(merged)
            assert (loaded.scaled[0] if field == "projection" else loaded.scaled_total) == sign * (a + b)



class TestSize:
    def test_reference_size(self, capsys):
        assert main(["size", "--epsilon", "0.1", "--gamma", "0.05"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["k"] == "2217"
        from entrosketch.tailbounds import tail_constants

        assert float(kv["g_right"]) == pytest.approx(
            tail_constants(1.0, 0.1).g_right, rel=1e-12
        )

    def test_one_tail_constants_call(self, capsys, monkeypatch):
        # the k search and the printed constants share one computation
        from entrosketch import tailbounds

        calls = []

        def counted(zeta, epsilon, inner=tailbounds.tail_constants):
            calls.append((zeta, epsilon))
            return inner(zeta, epsilon)

        monkeypatch.setattr(tailbounds, "tail_constants", counted)
        assert main(["size", "--epsilon", "0.1", "--gamma", "0.05"]) == 0
        assert calls == [(1.0, 0.1)]
        assert capsys.readouterr().out == (
            "k=2217\ng_right=5.7804489833433523\ng_left=6.2249006231491695\n")

    def test_quarter_epsilon_rule(self, capsys):
        main(["size", "--epsilon", "0.1", "--gamma", "0.05"])
        k1 = int(parse_kv(capsys.readouterr().out)["k"])
        main(["size", "--epsilon", "0.05", "--gamma", "0.05"])
        k2 = int(parse_kv(capsys.readouterr().out)["k"])
        assert k2 / k1 == pytest.approx(4.0, rel=0.01)

    def test_left_tail_at_large_epsilon(self, capsys):
        # the alternating series for the left tail used to cancel here
        assert main(["size", "--epsilon", "2", "--gamma", "0.05", "--zeta", "0.9"]) == 0
        assert parse_kv(capsys.readouterr().out)["k"] == "9"

    @pytest.mark.parametrize("argv", [
        ["size", "--epsilon", "1", "--gamma", "0.05", "--zeta", "0.99"],
        ["bench", "--kind", "tail_curve", "--zeta", "0.99", "--epsilon", "1", "--output", "t.csv"],
    ], ids=["size", "bench"])
    def test_right_tail_beyond_doubles(self, tmp_path, capsys, monkeypatch, argv):
        # the moment series overflowed before this sup; M(t) = L(-t) is finite for every t
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if argv[0] == "size":  # the bound is 0.0486 at k = 26 and 0.0550 at k = 25
            assert parse_kv(captured.out)["k"] == "26"
        else:
            rows = (tmp_path / "t.csv").read_text().splitlines()
            assert rows[0].startswith("zeta,epsilon,g_right,g_left") and len(rows) == 2

    @pytest.mark.parametrize("argv", [
        ["--epsilon", "1e-10"], ["--epsilon", "1e-50"], ["--epsilon", "1e-200"],
        ["--epsilon", "inf"], ["--epsilon", "1e300"],
        ["--epsilon", "0.1", "--zeta", "1e-50"], ["--epsilon", "0.1", "--zeta", "1e-300"],
    ], ids=" ".join)
    def test_refused_without_a_traceback(self, capsys, argv):
        # tiny eps or zeta, or eps beyond a double's exp: one error line
        assert main(["size", "--gamma", "0.05", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_zeta_above_one_fails(self, capsys):
        assert main(["size", "--epsilon", "0.1", "--gamma", "0.05",
                     "--zeta", "1.15"]) == 1
        assert "error" in capsys.readouterr().err


class TestOracle:
    def test_uniform4(self, capsys, uniform4_file):
        assert main(["oracle", "--input", uniform4_file]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["shannon"]) == pytest.approx(math.log(4), rel=1e-12)
        assert float(kv["renyi"]) == pytest.approx(math.log(4), rel=1e-9)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        src = write_stream(tmp_path, "bad.csv", ["a,1", "b,inf"])
        assert main(["oracle", "--input", src]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 2: ")

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_fails(self, capsys, uniform4_file, alpha):
        # nan once printed renyi=nan with exit 0, and inf a math domain error
        assert main(["oracle", "--input", uniform4_file, "--alpha", alpha]) == 1
        assert capsys.readouterr() == ("", "error: alpha must be positive, finite and != 1\n")

    @pytest.mark.parametrize("flags", [[], ["--alpha", "2000"]])
    def test_one_item_prints_no_negative_zero(self, tmp_path, capsys, flags):
        # only b survives: every entropy is 0, once printed -0
        src = write_stream(tmp_path, "s.csv", ["a,1", "b,2", "a,-1"])
        assert main(["oracle", "--input", src, *flags]) == 0
        assert capsys.readouterr().out == "shannon=0\nrenyi=0\ntsallis=0\n"

    def test_large_alpha_is_finite(self, capsys, uniform4_file):
        # sum p^alpha = 4^-1999 underflows; its log is a log-sum-exp
        assert main(["oracle", "--input", uniform4_file, "--alpha", "2000"]) == 0
        assert float(parse_kv(capsys.readouterr().out)["renyi"]) == pytest.approx(math.log(4), rel=1e-12)


class TestBench:
    def test_flags(self, tmp_path, capsys):
        out = str(tmp_path / "res.csv")
        assert main(["bench", "--kind", "tail_curve", "--epsilon", "0.1",
                     "--output", out]) == 0
        assert "wrote" in capsys.readouterr().out
        assert Path(out).read_text().startswith("zeta,")

    @staticmethod
    def spec_of(monkeypatch, flags):
        """The ExperimentSpec that ``entrosketch bench`` builds from ``flags``."""
        specs = []
        monkeypatch.setattr(bench, "run", lambda spec, out_path: specs.append(spec))
        assert main(["bench", *flags, "--output", "unused.csv"]) == 0
        return specs[0]

    def test_every_field_has_a_flag(self, monkeypatch, capsys):
        values = {"kind": "end_to_end", "k_values": [3, 5], "zeta_values": [0.5], "reps": 7,
                  "seed": 9, "epsilons": [0.2], "distribution": "zipf", "n_items": 6,
                  "n_updates": 50, "zipf_s": 1.5}
        assert set(values) == {f.name for f in fields(ExperimentSpec)}
        assert all(v != getattr(ExperimentSpec(), name) for name, v in values.items())
        flags = ["--kind", "end_to_end", "--k", "3", "5", "--zeta", "0.5", "--reps", "7",
                 "--seed", "9", "--epsilon", "0.2", "--distribution", "zipf", "--items", "6",
                 "--updates", "50", "--zipf-s", "1.5"]
        assert self.spec_of(monkeypatch, flags) == ExperimentSpec(**values)

    @pytest.mark.parametrize("env", [None, "5"])
    def test_no_flags_give_the_spec_defaults(self, monkeypatch, capsys, env):
        if env is None:
            monkeypatch.delenv("ENTROSKETCH_SEED", raising=False)
        else:
            monkeypatch.setenv("ENTROSKETCH_SEED", env)
        assert self.spec_of(monkeypatch, []) == ExperimentSpec(kind="bias_table",
                                                               seed=int(env or 0))

    @pytest.mark.parametrize("kind", bench.KINDS)
    def test_seed_env_sets_every_kind(self, monkeypatch, capsys, kind):
        monkeypatch.setenv("ENTROSKETCH_SEED", "5")
        assert self.spec_of(monkeypatch, ["--kind", kind]).seed == 5
        assert self.spec_of(monkeypatch, ["--kind", kind, "--seed", "6"]).seed == 6

    @pytest.mark.parametrize("flags, name", [
        (["--items", "0"], "n_items"),
        (["--updates", "-5"], "n_updates"),
        (["--reps", "0"], "reps"),
        (["--k", "10", "0"], "k_values"),
        (["--zeta", "-1"], "zeta_values"),
        (["--zeta", "1", "nan"], "zeta_values"),
        (["--epsilon", "-0.1"], "epsilons"),
        (["--epsilon", "0.1", "inf"], "epsilons"),
        (["--zipf-s", "0"], "zipf_s"),
        (["--zipf-s", "inf"], "zipf_s"),
        (["--seed", "-1"], "seed"),
        (["--seed", str(2**64)], "seed"),
        (["--k", "1"], "k_values"),  # end_to_end's bias correction is -inf at k=1
        (["--kind", "bias_table", "--k", "1"], "k_values"),  # and so is the bias table's
    ])
    def test_out_of_range_flag_fails_naming_its_field(self, tmp_path, capsys, flags, name):
        out = tmp_path / "res.csv"
        # small enough that a missing check fails fast; a later flag wins
        base = ["bench", "--kind", "end_to_end", "--reps", "1", "--updates", "10"]
        assert main([*base, *flags, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name} ")
        assert captured.out == ""
        assert not out.exists()

    def test_seeds_from_2_63_on_have_their_own_streams(self, tmp_path, capsys):
        # numpy reads a Philox key list as int64, or as float64 from 2^63 on,
        # where neighbouring seeds collide; the key is built as uint64 words
        csvs = []
        for seed in (2**63, 2**63 + 1):
            out = tmp_path / f"{seed}.csv"
            assert main(["bench", "--kind", "end_to_end", "--k", "4", "--reps", "2",
                         "--updates", "10", "--seed", str(seed), "--output", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] != csvs[1]
        # the master seed of replicate 1 wraps to 0
        out = tmp_path / "e2e.csv"
        assert main(["bench", "--kind", "end_to_end", "--reps", "2", "--updates", "10",
                     "--seed", str(2**64 - 1), "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_exact_kinds_ignore_reps_and_seed(self, tmp_path, capsys):
        # nothing is sampled: the bias table is the estimator's BC, the MSE the
        # quadrature's variance, inf at k=2
        csvs = []
        for flags in ([], ["--reps", "7", "--seed", "9"]):
            out = tmp_path / f"bias{len(flags)}.csv"
            assert main(["bench", "--k", "4", *flags, "--output", str(out)]) == 0
            csvs.append(out.read_text())
        assert csvs[0] == csvs[1] == "k,zeta,bc\n4,1.0,-0.46351002593696444\n"
        out = tmp_path / "mse.csv"
        assert main(["bench", "--kind", "mse_curve", "--k", "2", "--output", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("2,1.0,inf,inf,inf,")

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 745. GiB for an array"),
         "error: Unable to allocate 745. GiB for an array"),
        (MemoryError(), "error: MemoryError"),
    ])
    def test_memory_error_fails_cleanly(self, monkeypatch, tmp_path, capsys, exc, message):
        # a width such as --k 100000000000 asks numpy for more than memory
        def run(spec, out_path):
            raise exc

        monkeypatch.setattr(bench, "run", run)
        out = tmp_path / "res.csv"
        assert main(["bench", "--kind", "end_to_end", "--k", "100000000000", "--reps", "1",
                     "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""
        assert not out.exists()

    def test_config_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", "spec.json", "--output", str(tmp_path / "res.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_unknown_kind_fails(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        assert main(["bench", "--kind", "nope", "--output", str(out)]) == 1
        assert "kind must be one of" in capsys.readouterr().err
        assert not out.exists()


def _child_env() -> dict:
    """This environment, with the package's ``src`` first on PYTHONPATH."""
    src_root = str(Path(entrosketch.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def modules_after(code: str, *flags: str) -> set:
    """Names in sys.modules after a fresh interpreter, started with
    ``flags``, runs ``code``."""
    probe = code + "\nimport sys\nsys.stderr.write('\\n' + ' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, *flags, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, check=True)
    return set(proc.stderr.splitlines()[-1].split())


class TestImportGraph:
    """Each CLI process imports only the modules its subcommand runs."""

    def test_cli_import_loads_no_numpy(self):
        modules = modules_after("import entrosketch.cli")
        assert not {"numpy", "json"} & modules
        assert {m for m in modules if m.startswith("entrosketch")} == {
            "entrosketch", "entrosketch.cli"}

    def test_size_loads_no_numpy(self):
        modules = modules_after(
            "from entrosketch.cli import main\n"
            "assert main(['size', '--epsilon', '0.1', '--gamma', '0.05']) == 0")
        assert "entrosketch.tailbounds" in modules
        assert not {"numpy", "dataclasses", "inspect"} & modules

    def test_oracle_loads_no_numpy(self, tmp_path):
        stream = tmp_path / "s.csv"
        stream.write_text("a,1\nb,2\na,-1\nc\n")
        modules = modules_after(
            "from entrosketch.cli import main\n"
            f"assert main(['oracle', '--input', {str(stream)!r}]) == 0")
        assert {m for m in modules if m.startswith("entrosketch")} == {
            "entrosketch", "entrosketch.cli", "entrosketch.streams", "entrosketch.oracle"}
        assert "numpy" not in modules

    def test_ingest_loads_only_its_modules(self, tmp_path):
        # 3 distinct items at k=64 are far below the threading threshold
        stream = tmp_path / "s.csv"
        stream.write_text("a,1\nb,2\na,-1\n")
        modules = modules_after(
            "from entrosketch.cli import main\n"
            f"assert main(['ingest', '--input', {str(stream)!r}, "
            f"'--output', {str(tmp_path / 's.bin')!r}, '--k', '64']) == 0")
        assert {m for m in modules if m.startswith("entrosketch")} == {
            "entrosketch", "entrosketch.cli", "entrosketch.streams", "entrosketch.sketch",
            "entrosketch.sketchfile", "entrosketch.hashing", "entrosketch.stable"}
        unused = {"concurrent.futures", "logging"}
        assert not unused & modules

    @pytest.mark.parametrize("k, zeta", [(64, 1.0), (5, 1.0), (20, 2.0)],
                             ids=["k64-zeta1", "k5-zeta1", "k20-zeta2"])
    def test_estimate_loads_only_its_modules(self, tmp_path, k, zeta):
        # every bias correction is the stdlib-only quadrature: no numpy,
        # Monte Carlo, sampler or threads
        # -S: a site-packages .pth file may import threading at start-up
        modules = modules_after(
            "from entrosketch.cli import main\n"
            f"assert main(['estimate', {_sketch_file(tmp_path, 's.bin', k, zeta)!r}]) == 0", "-S")
        assert {m for m in modules if m.startswith("entrosketch")} == {
            "entrosketch", "entrosketch.cli", "entrosketch.sketchfile", "entrosketch.estimator",
            "entrosketch.quadrature"}
        assert not {"numpy", "threading", "logging", "json", "csv", "concurrent.futures",
                    "dataclasses", "inspect"} & modules
        # only the Mellin-Barnes nodes need complex math; zeta = 1 builds none
        assert ("cmath" in modules) == (zeta != 1.0)

    @pytest.mark.parametrize("kind", ["bias_table", "mse_curve", "tail_curve"])
    def test_exact_bench_kinds_load_no_numpy(self, tmp_path, kind):
        # only end_to_end samples; -S: a site-packages .pth file may import numpy
        out = str(tmp_path / "res.csv")
        modules = modules_after(
            "from entrosketch.cli import main\n"
            f"assert main(['bench', '--kind', {kind!r}, '--k', '5', '--epsilon', '0.1', "
            f"'--output', {out!r}]) == 0", "-S")
        assert "entrosketch.bench" in modules
        assert not {"numpy", "entrosketch.sketch", "entrosketch.stable"} & modules

    def test_merge_loads_no_numpy(self, tmp_path):
        a = _sketch_file(tmp_path, "a.bin", 64)
        modules = modules_after(
            "from entrosketch.cli import main\n"
            f"assert main(['merge', {a!r}, {a!r}, '--output', {str(tmp_path / 'm.bin')!r}]) == 0")
        assert {m for m in modules if m.startswith("entrosketch")} == {
            "entrosketch", "entrosketch.cli", "entrosketch.sketchfile"}
        assert not {"numpy", "json", "dataclasses", "inspect"} & modules

    def test_quadrature_is_logged_where_logging_is_set_up(self, tmp_path):
        args = ["estimate", _sketch_file(tmp_path, "s.bin", 5)]
        expected = "INFO:entrosketch.quadrature:bias correction by quadrature: k=5, zeta=1.0\n"
        modules_after(
            "import io, logging\n"
            "log = io.StringIO()\n"
            "logging.basicConfig(stream=log, level=logging.INFO)\n"
            "from entrosketch.cli import main\n"
            f"assert main({args!r}) == 0\n"
            f"assert log.getvalue() == {expected!r}, log.getvalue()")


class TestBlasThreads:
    """``main`` holds OpenBLAS and OpenMP at one thread before a subcommand
    imports numpy, unless the caller set a count."""

    @pytest.mark.parametrize("given, expected", [(None, "1 1"), ("3", "3 3")], ids=["unset", "set"])
    def test_thread_count_when_numpy_loads(self, tmp_path, given, expected):
        env = _child_env()
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(var, None)
            if given is not None:
                env[var] = given
        stream = write_stream(tmp_path, "s.csv", ["a,1", "b,2"])
        # an audit hook records the variables at the moment numpy is imported
        probe = (
            "import os, sys\n"
            "seen = []\n"
            "def hook(event, args):\n"
            "    if event == 'import' and args[0] == 'numpy' and not seen:\n"
            "        seen.append(' '.join(os.environ.get(v, '-') for v in "
            "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')))\n"
            "sys.addaudithook(hook)\n"
            "from entrosketch.cli import main\n"
            f"assert main(['ingest', '--input', {stream!r}, '--output', "
            f"{str(tmp_path / 's.bin')!r}, '--k', '8']) == 0\n"
            "sys.stderr.write(seen[0])")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stderr == expected


def cli_process(args, stdout=subprocess.PIPE):
    """``python -m entrosketch.cli args`` with stdout a block-buffered pipe,
    as in a shell pipeline (PYTHONUNBUFFERED is dropped): output that the
    process did not flush before exiting is lost."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "entrosketch.cli", *args], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


class TestProcessExit:
    """The program exits through ``cli.run``: flush, then ``os._exit``."""

    def test_every_line_reaches_a_pipe(self, tmp_path, capsys):
        # each line and file equals what an in-process main() prints and writes
        stream = write_stream(tmp_path, "s.csv", [f"it{i * 7 % 13},{1 + i % 3}" for i in range(40)])
        a, b, m = (str(tmp_path / name) for name in ("a.bin", "b.bin", "m.bin"))
        flows = [
            ["ingest", "--input", stream, "--output", a, "--k", "64", "--seed", "7"],
            ["ingest", "--input", stream, "--output", b, "--k", "64", "--seed", "8"],
            ["estimate", a],
            ["merge", a, a, "--output", m],
            ["size", "--epsilon", "0.1", "--gamma", "0.05"],
            ["oracle", "--input", stream],
        ]
        for args in flows:
            proc = cli_process(args)
            files = {path: Path(path).read_bytes() for path in (a, b, m) if Path(path).exists()}
            assert main(args) == 0
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")
            assert proc.stdout
            assert {path: Path(path).read_bytes() for path in files} == files
        assert len(files) == 3

    def test_error_exits_1_and_bad_flag_exits_2(self, tmp_path):
        proc = cli_process(["estimate", str(tmp_path / "missing.bin")])
        assert (proc.returncode, proc.stdout) == (1, "")
        assert re.fullmatch(r"error: \[Errno 2\] .*missing\.bin'\n", proc.stderr)
        proc = cli_process(["size", "--epsilon", "0.1", "--gamma", "0.05", "--bogus"])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.endswith("error: unrecognized arguments: --bogus\n")

    def test_closed_pipe_is_an_error(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = cli_process(["size", "--epsilon", "0.1", "--gamma", "0.05"], stdout=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "error: [Errno 32] Broken pipe\n")


def _sketch_file(tmp_path, name, k, zeta=1.0):
    path = tmp_path / name
    path.write_bytes(sketch_stream([("a", 1.0), ("b", 2.0)], k=k, zeta=zeta, master_seed=1).to_bytes())
    return str(path)
