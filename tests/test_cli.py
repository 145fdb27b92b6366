"""CLI flows: ingest -> estimate -> merge, plus size/oracle/bench."""

import io
import math
from pathlib import Path

import pytest

from entrosketch import sketch as sketch_mod
from entrosketch.cli import main
from entrosketch.sketch import EntropySketch, new_sketch


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

    def test_monte_carlo_estimate_prints_no_log(self, tmp_path, capsys):
        # the Monte Carlo fallback logs at INFO, which the CLI does not show;
        # k=5 is below the closed form's region
        src = write_stream(tmp_path, "s.csv", ["a,1", "b,2"])
        out = str(tmp_path / "s.bin")
        main(["ingest", "--input", src, "--output", out, "--k", "5", "--zeta", "0.9"])
        capsys.readouterr()
        assert main(["estimate", out, "--reps", "500"]) == 0
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


class TestSize:
    def test_reference_size(self, capsys):
        assert main(["size", "--epsilon", "0.1", "--gamma", "0.05"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["k"] == "2217"
        from entrosketch.tailbounds import tail_constants

        assert float(kv["g_right"]) == pytest.approx(
            tail_constants(1.0, 0.1).g_right, rel=1e-12
        )

    def test_quarter_epsilon_rule(self, capsys):
        main(["size", "--epsilon", "0.1", "--gamma", "0.05"])
        k1 = int(parse_kv(capsys.readouterr().out)["k"])
        main(["size", "--epsilon", "0.05", "--gamma", "0.05"])
        k2 = int(parse_kv(capsys.readouterr().out)["k"])
        assert k2 / k1 == pytest.approx(4.0, rel=0.01)

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


class TestBench:
    def test_flags(self, tmp_path, capsys):
        out = str(tmp_path / "res.csv")
        assert main(["bench", "--kind", "tail_curve", "--epsilon", "0.1",
                     "--output", out]) == 0
        assert "wrote" in capsys.readouterr().out
        assert Path(out).read_text().startswith("zeta,")

    def test_json_config(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text('{"kind": "bias_table", "k_values": [10], "reps": 2000}')
        out = str(tmp_path / "res.csv")
        assert main(["bench", "--config", str(cfg), "--output", out]) == 0
        assert Path(out).read_text().startswith("k,")
